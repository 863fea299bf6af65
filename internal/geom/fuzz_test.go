package geom

import (
	"math"
	"testing"
)

// fuzzCoordBound caps fuzzed coordinates. The spline lattice is resampled
// at a fixed spacing, so unbounded-but-finite control points would make
// construction allocate O(path length) vertices; 1e4 m keeps the worst
// case around a hundred thousand lattice points while still exercising
// extreme geometry.
const fuzzCoordBound = 1e4

// FuzzSplineProject drives spline construction and point projection with
// arbitrary control and query points. Contract under test: for any spline
// that construction accepts, Project never panics, returns finite
// (arc, lateral), and the arc stays within [0, Length] — i.e. the
// normalised parameter t = arc/Length is always in [0, 1].
func FuzzSplineProject(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 20.0, 5.0, 30.0, 5.0, 15.0, 2.0, false)
	f.Add(0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0, 5.0, 5.0, true)
	f.Add(-50.0, -50.0, 0.0, 80.0, 50.0, -50.0, 0.0, 0.0, 100.0, 100.0, false)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4, qx, qy float64, closed bool) {
		coords := []float64{x1, y1, x2, y2, x3, y3, x4, y4, qx, qy}
		for _, c := range coords {
			if math.IsNaN(c) || math.Abs(c) > fuzzCoordBound {
				t.Skip("out-of-scope input")
			}
		}
		ctrl := []Vec2{{X: x1, Y: y1}, {X: x2, Y: y2}, {X: x3, Y: y3}, {X: x4, Y: y4}}
		s, err := NewSpline(ctrl, SplineOpts{Closed: closed})
		if err != nil {
			// Degenerate control sets are rejected, not projected.
			return
		}
		q := Vec2{X: qx, Y: qy}
		arc, lateral := s.Project(q)
		if math.IsNaN(arc) || math.IsInf(arc, 0) {
			t.Fatalf("Project(%v) arc not finite: %g", q, arc)
		}
		if math.IsNaN(lateral) || math.IsInf(lateral, 0) {
			t.Fatalf("Project(%v) lateral not finite: %g", q, lateral)
		}
		length := s.Length()
		if arc < 0 || arc > length {
			t.Fatalf("Project(%v) arc %g outside [0, %g]", q, arc, length)
		}
		if length > 0 {
			if tt := arc / length; tt < 0 || tt > 1 {
				t.Fatalf("normalised parameter %g outside [0, 1]", tt)
			}
		}
		// The projected foot point must itself be a finite point on the path.
		p := s.PointAt(arc)
		if !p.IsFinite() {
			t.Fatalf("PointAt(%g) not finite: %v", arc, p)
		}
		if h := s.HeadingAt(arc); math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("HeadingAt(%g) not finite: %g", arc, h)
		}
	})
}

// FuzzProjectRange is the differential check of the windowed projection
// and the lattice lookups: over arbitrary splines, query points and
// windows (wrapped, negative, ≥2L, clamped on open paths, empty, NaN,
// at least a lap), Project and ProjectRange must equal the full-scan
// oracle bit for bit, and a curvature cursor swept across the window must equal
// CurvatureAt and the pre-cursor oracle bit for bit.
func FuzzProjectRange(f *testing.F) {
	circle := []float64{0, 0, 10, 0, 10, 10, 0, 10}
	add := func(closed bool, qx, qy, s0, s1 float64) {
		f.Add(circle[0], circle[1], circle[2], circle[3], circle[4], circle[5], circle[6], circle[7], qx, qy, s0, s1, closed)
	}
	add(true, 5, -1, 3, 12)          // inside
	add(true, 1, -0.5, 30, 42)       // wrapped across the seam
	add(true, 1, -0.5, -6, 4)        // negative start
	add(true, 2, 11, 85, 95)         // beyond 2L
	add(true, 2, 11, 10, 10)         // empty
	add(true, 2, 11, 20, 5)          // inverted
	add(true, 2, 11, math.NaN(), 10) // NaN
	add(true, 2, 11, 4, 4+80)        // a whole lap and more
	add(true, 9, 9, 2, 38)           // nearly a lap
	add(false, 5, 5, -20, 3)         // open, clamped at the start
	add(false, 5, 5, 25, 90)         // open, clamped at the end
	add(false, 5, 5, 80, 90)         // open, clamped to nothing
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4, qx, qy, s0, s1 float64, closed bool) {
		for _, c := range []float64{x1, y1, x2, y2, x3, y3, x4, y4, qx, qy} {
			if math.IsNaN(c) || math.Abs(c) > fuzzCoordBound {
				t.Skip("out-of-scope input")
			}
		}
		ctrl := []Vec2{{X: x1, Y: y1}, {X: x2, Y: y2}, {X: x3, Y: y3}, {X: x4, Y: y4}}
		sp, err := NewSpline(ctrl, SplineOpts{Closed: closed})
		if err != nil {
			return
		}
		checkProject(t, sp.lattice, Vec2{X: qx, Y: qy})
		checkProjectRange(t, sp.lattice, Vec2{X: qx, Y: qy}, s0, s1)

		// Sweep at most a few hundred arcs from s0 toward s1 (or a short
		// way past s0 when the window is empty, inverted or not finite).
		step := (s1 - s0) / 200
		if !(step > 0) || math.IsInf(step, 0) {
			step = 0.37
		}
		arcs := []float64{s1}
		for k := 0; k <= 200; k++ {
			arcs = append(arcs, s0+float64(k)*step)
		}
		checkCurvatureSweep(t, sp, arcs)
	})
}

// FuzzPolylineProject is the differential check of the vertex-pruned scan
// on raw polylines, whose segment lengths vary freely (a short segment
// beside a long one is where a vertex bound is tightest): Project and
// ProjectRange must equal the full-scan oracle bit for bit, for query
// points near the path, far from it and non-finite.
func FuzzPolylineProject(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 10.3, 0.2, 10.3, 9.0, -4.0, 9.5, 5.0, 0.4, 3.0, 25.0, false)
	f.Add(0.0, 0.0, 10.0, 0.0, 10.3, 0.2, 10.3, 9.0, -4.0, 9.5, 10.1, 0.1, 20.0, 45.0, true)
	f.Add(0.0, 0.0, 1e4, 0.0, 1e4, 1e-3, 0.0, 1e-3, 5e3, 5e3, 5e3, 5e-4, -10.0, 7.0, true)
	f.Add(-1e4, 1e4, 1e4, -1e4, 1e4, 1e4, -1e4, -1e4, 0.5, 0.5, 0.0, 0.0, 0.0, 1e5, false)
	f.Add(1.0, 1.0, 2.0, 2.0, 3.0, 1.0, 4.0, 2.0, 5.0, 1.0, math.Inf(1), 1.0, 0.0, 3.0, false)
	f.Add(1.0, 1.0, 2.0, 2.0, 3.0, 1.0, 4.0, 2.0, 5.0, 1.0, math.NaN(), 1.0, 0.0, 3.0, true)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4, x5, y5, qx, qy, s0, s1 float64, closed bool) {
		for _, c := range []float64{x1, y1, x2, y2, x3, y3, x4, y4, x5, y5} {
			if math.IsNaN(c) || math.Abs(c) > fuzzCoordBound {
				t.Skip("out-of-scope input")
			}
		}
		pts := []Vec2{{X: x1, Y: y1}, {X: x2, Y: y2}, {X: x3, Y: y3}, {X: x4, Y: y4}, {X: x5, Y: y5}}
		p, err := newPolyline(pts, closed)
		if err != nil {
			return
		}
		q := Vec2{X: qx, Y: qy}
		checkProject(t, p, q)
		checkProjectRange(t, p, q, s0, s1)
	})
}
