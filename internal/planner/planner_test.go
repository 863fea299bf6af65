package planner

import (
	"math"
	"testing"

	"adassure/internal/geom"

	"adassure/internal/track"
	"adassure/internal/vehicle"
)

func TestNewSpeedProfileValidation(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpeedProfile(nil, 8, p); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := NewSpeedProfile(tr.Path(), 0, p); err == nil {
		t.Error("zero limit accepted")
	}
	bad := p
	bad.Wheelbase = -1
	if _, err := NewSpeedProfile(tr.Path(), 8, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSpeedProfileStraightHitsLimit(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Straight(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 6, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(100); math.Abs(v-6) > 1e-9 {
		t.Errorf("straight target = %g, want 6", v)
	}
}

func TestSpeedProfileRespectsLateralAccel(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Circle(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 20, p)
	if err != nil {
		t.Fatal(err)
	}
	// v² κ ≤ a_lat → v ≤ sqrt(2.5·10) ≈ 5.
	want := math.Sqrt(p.MaxLatAccel * 10)
	v := sp.TargetAt(5)
	if v > want*1.1 {
		t.Errorf("circle target %g exceeds lateral-accel bound %g", v, want)
	}
	if v < want*0.7 {
		t.Errorf("circle target %g suspiciously below bound %g", v, want)
	}
}

func TestSpeedProfileCapsAtVehicleMaxSpeed(t *testing.T) {
	p := vehicle.ShuttleParams() // MaxSpeed 8
	tr, err := track.Straight(200, 50)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 50, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(100); v > p.MaxSpeed+1e-9 {
		t.Errorf("target %g exceeds vehicle max %g", v, p.MaxSpeed)
	}
}

func TestSpeedProfileBrakesBeforeCorner(t *testing.T) {
	p := vehicle.SedanParams()
	tr, err := track.Hairpin(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 20, p)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the hairpin apex (max curvature).
	L := tr.Path().Length()
	apexS, maxK := 0.0, 0.0
	for i := 0; i < 400; i++ {
		s := L * float64(i) / 400
		if k := math.Abs(tr.Path().CurvatureAt(s)); k > maxK {
			maxK, apexS = k, s
		}
	}
	vApex := sp.TargetAt(apexS)
	// 20 m before the apex the preview must already slow the car below
	// the straight-line limit.
	vBefore := sp.TargetAt(apexS - 20)
	if vBefore >= 20 {
		t.Errorf("no braking preview: v(-20m)=%g", vBefore)
	}
	// And the preview speed must be consistent with comfort braking into
	// the apex speed: v² ≤ vApex² + 2·a·d.
	bound := math.Sqrt(vApex*vApex + 2*(p.MaxBrake*0.7)*20)
	if vBefore > bound+0.5 {
		t.Errorf("preview speed %g violates braking feasibility %g", vBefore, bound)
	}
}

func TestProgressOpenRoute(t *testing.T) {
	tr, err := track.Straight(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProgress(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	pr.Observe(0)
	pr.Observe(10)
	pr.Observe(9.5) // projection jitter backward
	pr.Observe(50)
	if got := pr.Total(); math.Abs(got-50) > 1e-9 {
		t.Errorf("total = %g, want 50", got)
	}
	if pr.Finished() {
		t.Error("finished too early")
	}
	pr.Observe(99.5)
	if !pr.Finished() {
		t.Error("should be finished near the end")
	}
}

func TestProgressClosedLapWrap(t *testing.T) {
	tr, err := track.Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	L := tr.Path().Length()
	pr, err := NewProgress(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a bit over two laps in 1 m increments (projection wraps at L).
	dist := 2*L + 5
	total := 0.0
	for d := 0.0; d <= dist; d += 1 {
		total = pr.Observe(math.Mod(d, L))
	}
	if math.Abs(total-dist) > 2 {
		t.Errorf("progress = %g, want ~%g", total, dist)
	}
	if pr.Laps() != 2 {
		t.Errorf("laps = %d, want 2", pr.Laps())
	}
	if pr.Finished() {
		t.Error("closed route should never report finished")
	}
}

func TestProgressNilPath(t *testing.T) {
	if _, err := NewProgress(nil); err == nil {
		t.Error("nil path accepted")
	}
}

func TestSpeedProfileHonoursZones(t *testing.T) {
	p := vehicle.ShuttleParams()
	base, err := track.Straight(300, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(track.SpeedZone{Start: 100, End: 150, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfileForTrack(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(120); v > 2+1e-9 {
		t.Errorf("target inside zone = %g, want <= 2", v)
	}
	if v := sp.TargetAt(200); v < 7 {
		t.Errorf("target outside zone = %g, want ~8", v)
	}
	// Braking preview: approaching the zone, the target must already drop
	// so the zone entry speed is reachable under comfort braking.
	vBefore := sp.TargetAt(95)
	bound := math.Sqrt(2*2 + 2*(p.MaxBrake*0.7)*5)
	if vBefore > bound+0.3 {
		t.Errorf("approach speed %g violates braking feasibility %g", vBefore, bound)
	}
	if _, err := NewSpeedProfileForTrack(nil, p); err == nil {
		t.Error("nil track accepted")
	}
}

func TestFollowerSticksToBranchOnFigureEight(t *testing.T) {
	tr, err := track.FigureEight(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Walk the whole loop in 0.5 m steps with small lateral noise; the
	// follower's arc position must advance monotonically (mod wrap) even
	// through the self-intersection at the centre.
	L := tr.Path().Length()
	prev := -1.0
	for d := 0.0; d < L-1; d += 0.5 {
		q := tr.Path().PointAt(d)
		s, lat := f.Project(q)
		if math.Abs(lat) > 0.05 {
			t.Fatalf("on-path point at d=%.1f got lateral %.3f", d, lat)
		}
		if prev >= 0 && s < prev-2 {
			t.Fatalf("follower jumped backwards at d=%.1f: %.1f after %.1f", d, s, prev)
		}
		prev = s
	}
}

func TestFollowerReacquiresAfterTeleport(t *testing.T) {
	tr, err := track.Straight(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	f.Project(geom.V(10, 0))
	// Teleport 100 m ahead (beyond the window): must re-acquire globally.
	s, lat := f.Project(geom.V(110, 0.2))
	if math.Abs(s-110) > 1 {
		t.Errorf("teleport re-acquire s=%.1f, want ~110", s)
	}
	if math.Abs(lat-0.2) > 0.05 {
		t.Errorf("teleport lateral = %.2f", lat)
	}
	if _, err := NewFollower(nil); err == nil {
		t.Error("nil path accepted")
	}
}

// sink keeps the allocation tests' results live.
var sink float64

// TestSpeedTargetAtAllocs pins TargetAt's curvature cursor to the stack:
// a per-call heap allocation would cost every control tick two.
func TestSpeedTargetAtAllocs(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfileForTrack(tr, vehicle.ShuttleParams())
	if err != nil {
		t.Fatal(err)
	}
	s := 0.0
	if a := testing.AllocsPerRun(200, func() {
		s += 0.7
		sink = sp.TargetAt(s)
	}); a != 0 {
		t.Errorf("TargetAt allocates %.1f times per call, want 0", a)
	}
}

// TestFollowerViewProjectAllocs pins the view's Project, both the cached
// answer for the follower's own point and the windowed projection of any
// other, to zero allocations.
func TestFollowerViewProjectAllocs(t *testing.T) {
	tr, err := track.FigureEight(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Path().PointAt(20).Add(geom.V(0.3, 0.2))
	f.Project(q)
	view := f.View()
	front := q.Add(geom.V(2, 0.5))
	if a := testing.AllocsPerRun(200, func() {
		s1, _ := view.Project(q)
		s2, _ := view.Project(front)
		sink = s1 + s2
	}); a != 0 {
		t.Errorf("view Project allocates %.1f times per call pair, want 0", a)
	}
}

// TestFollowerView: the view answers the follower's own point with the
// follower's result, projects other points over the follower's window
// without moving it, and delegates the rest to the path.
func TestFollowerView(t *testing.T) {
	tr, err := track.FigureEight(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := tr.Path()
	f, err := NewFollower(path)
	if err != nil {
		t.Fatal(err)
	}
	view := f.View()
	// Before the follower has projected anything the view is global.
	q0 := path.PointAt(10).Add(geom.V(0, 0.4))
	if s, lat := view.Project(q0); s != mustProject(path, q0) || math.Abs(lat) > 1 {
		t.Fatalf("uninitialised view Project = (%g, %g), want the global projection", s, lat)
	}
	// Walk to just before the crossing (at L/2) along the first branch.
	L := path.Length()
	var s, lat float64
	var q geom.Vec2
	for d := 0.0; d <= L/2-0.5; d += 0.5 {
		q = path.PointAt(d).Add(geom.V(0.05, 0.05))
		s, lat = f.Project(q)
	}
	if vs, vlat := view.Project(q); vs != s || vlat != lat {
		t.Fatalf("view Project of the follower's point = (%g, %g), follower (%g, %g)", vs, vlat, s, lat)
	}
	ahead := path.PointAt(s + 3)
	if vs, _ := view.Project(ahead); math.Abs(vs-(s+3)) > 0.01 {
		t.Errorf("view Project 3 m ahead = %g, want %g", vs, s+3)
	}
	if f.lastS != s || f.lastQ != q {
		t.Errorf("view Project moved the follower's window to %g (was %g)", f.lastS, s)
	}
	for _, a := range []float64{0, s, L - 1} {
		if view.PointAt(a) != path.PointAt(a) || view.HeadingAt(a) != path.HeadingAt(a) || view.CurvatureAt(a) != path.CurvatureAt(a) {
			t.Errorf("view accessors differ from the path at %g", a)
		}
	}
	if view.Length() != L || view.Closed() != path.Closed() {
		t.Error("view Length/Closed differ from the path")
	}
}

func mustProject(p geom.Path, q geom.Vec2) float64 {
	s, _ := p.Project(q)
	return s
}

// targetAtFullPreview is TargetAt before the braking-horizon cut-off, kept
// as the differential oracle: every one of the preview samples, each with
// its own curvature lookup.
func targetAtFullPreview(sp *SpeedProfile, s float64) float64 {
	cur := geom.NewCurvatureCursor(sp.path)
	v := sp.curveSpeed(&cur, s)
	for d := sp.previewStep; d <= sp.preview; d += sp.previewStep {
		ahead := sp.curveSpeed(&cur, s+d)
		reachable := math.Sqrt(ahead*ahead + 2*sp.maxBrake*d)
		if reachable < v {
			v = reachable
		}
	}
	return v
}

// TestTargetAtMatchesFullPreview holds the cut-off preview bit-equal to the
// full one on every catalog track, with and without speed zones, for the
// shuttle and the sedan, over arcs from a lap behind to three laps ahead
// and NaN.
func TestTargetAtMatchesFullPreview(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]vehicle.Params{"shuttle": vehicle.ShuttleParams(), "sedan": vehicle.SedanParams()}
	for _, name := range track.Names(cat) {
		base := cat[name]
		L := base.Path().Length()
		zoned, err := base.WithZones(
			track.SpeedZone{Start: 0, End: 0.1 * L, Limit: 2},
			track.SpeedZone{Start: 0.45 * L, End: 0.6 * L, Limit: 3.5},
			track.SpeedZone{Start: 0.9 * L, End: 1.5 * L, Limit: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*track.Track{base, zoned} {
			for pname, p := range params {
				sp, err := NewSpeedProfileForTrack(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				arcs := []float64{math.NaN(), -0.0, L, 2 * L, 3 * L, math.Nextafter(L, 0)}
				for s := -L; s <= 3*L; s += 0.37 {
					arcs = append(arcs, s)
				}
				for _, s := range arcs {
					got, want := sp.TargetAt(s), targetAtFullPreview(sp, s)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s (%d zones, %s): TargetAt(%g) = %v, full preview %v",
							name, len(tr.Zones()), pname, s, got, want)
					}
				}
			}
		}
	}
}
