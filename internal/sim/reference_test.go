package sim

import (
	"math"
	"testing"

	"adassure/internal/control"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/planner"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// projectSpy is a geom.Path that records the arc of every projection a
// controller asks of it.
type projectSpy struct {
	geom.Path
	arcs []float64
}

func (p *projectSpy) Project(q geom.Vec2) (s, lateral float64) {
	s, lateral = p.Path.Project(q)
	p.arcs = append(p.arcs, s)
	return s, lateral
}

// arcDiff is a−b on a loop of length L, folded into [−L/2, L/2).
func arcDiff(a, b, L float64) float64 {
	return math.Mod(math.Mod(a-b+L/2, L)+L, L) - L/2
}

// TestControllersProjectInsideFollowerWindow drives a lap of the catalog
// figure-eight 0.3 m left of the path the way the step loop does: the
// follower projects the estimate, then each controller steers against
// the follower's view. Every projection a controller makes must land
// inside the follower's window and on the branch being driven. A global
// projection jumps to the other branch near the crossing, which the lap
// must reach for the test to mean anything.
func TestControllersProjectInsideFollowerWindow(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	path := cat["figure-eight"].Path()
	L := path.Length()
	params := vehicle.ShuttleParams()
	const step, offset = 0.05, 0.3
	for _, ctrl := range control.All(params) {
		f, err := planner.NewFollower(path)
		if err != nil {
			t.Fatal(err)
		}
		spy := &projectSpy{Path: f.View()}
		points, jumps := 0, 0
		// The path starts on the crossing, so the lap starts a quarter
		// of the way round, where the follower's initial global
		// projection is unambiguous.
		for k := 0.0; k*step < L; k++ {
			d := L/4 + k*step
			h := path.HeadingAt(d)
			pos := path.PointAt(d).Add(geom.V(-math.Sin(h), math.Cos(h)).Scale(offset))
			s, _ := f.Project(pos)
			points++
			if gs, _ := path.Project(pos); math.Abs(arcDiff(gs, s, L)) > 1 {
				jumps++
			}
			spy.arcs = spy.arcs[:0]
			ctrl.Steer(fusion.Estimate{Pose: geom.Pose{Pos: pos, Heading: h}, Speed: 5}, spy, 0.05)
			if len(spy.arcs) == 0 {
				t.Fatalf("%s: Steer made no projection at d=%.2f", ctrl.Name(), d)
			}
			for _, a := range spy.arcs {
				if rel := arcDiff(a, s, L); rel < -f.Back || rel > f.Ahead {
					t.Fatalf("%s: projection at s=%.2f left the follower window around %.2f (d=%.2f)", ctrl.Name(), a, s, d)
				}
				// The furthest a controller looks is Stanley's front axle,
				// one wheelbase ahead of the estimate.
				if math.Abs(arcDiff(a, d, L)) > params.Wheelbase+1 {
					t.Fatalf("%s: projection at s=%.2f is on the other branch (d=%.2f)", ctrl.Name(), a, d)
				}
			}
		}
		if jumps == 0 {
			t.Fatalf("global projection never left the follower's branch over %d points; the lap misses the crossing", points)
		}
		t.Logf("%s: global projection disagrees with the follower by >1 m at %d of %d points", ctrl.Name(), jumps, points)
	}
}
