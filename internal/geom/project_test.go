package geom

import (
	"math"
	"testing"
)

func TestProjectRangeRestrictsWindow(t *testing.T) {
	// A U-shaped path whose two legs are spatially close: global projection
	// from a point near leg 1 but slightly closer to leg 2 picks leg 2; a
	// windowed projection around leg 1 must stay on leg 1.
	p := mustPolyline(t, []Vec2{{0, 0}, {20, 0}, {20, 4}, {0, 4}})
	q := V(10, 2.5) // between the legs, nearer the return leg (y=4)
	sGlobal, _ := p.Project(q)
	if sGlobal < 24 { // 20 + 4 → return leg starts at s=24
		t.Fatalf("global projection s=%.1f should pick the return leg", sGlobal)
	}
	sLocal, lat := p.ProjectRange(q, 5, 15)
	if sLocal < 5 || sLocal > 15 {
		t.Errorf("windowed projection escaped: s=%.1f", sLocal)
	}
	if math.Abs(lat-2.5) > 1e-9 {
		t.Errorf("windowed lateral = %g, want 2.5", lat)
	}
}

func TestProjectRangeEmptyWindowFallsBack(t *testing.T) {
	p := mustPolyline(t, []Vec2{{0, 0}, {10, 0}})
	s, lat := p.ProjectRange(V(3, 1), 8, 4) // inverted window
	sg, lg := p.Project(V(3, 1))
	if s != sg || lat != lg {
		t.Error("inverted window should fall back to global projection")
	}
	// Window entirely outside an open path clamps to nothing → fallback.
	s, _ = p.ProjectRange(V(3, 1), 50, 60)
	if s != sg {
		t.Errorf("out-of-path window: s=%g, want global %g", s, sg)
	}
}

func TestProjectRangeWrapsOnClosedPaths(t *testing.T) {
	sq, err := NewClosedPolyline([]Vec2{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Window straddling the wrap point (s=38..42 on a 40 m loop covers the
	// last 2 m and first 2 m).
	q := V(1, -0.5) // near the start of the first edge
	s, lat := sq.ProjectRange(q, 38, 42)
	if s > 3 && s < 37 {
		t.Errorf("wrapped window projection s=%.1f escaped the window", s)
	}
	if math.Abs(lat+0.5) > 1e-9 {
		t.Errorf("lateral = %g, want -0.5", lat)
	}
	// Window covering the whole loop behaves like global.
	sg, _ := sq.Project(q)
	s, _ = sq.ProjectRange(q, 0, 100)
	if s != sg {
		t.Errorf("full window s=%g vs global %g", s, sg)
	}
}

func TestSplineProjectRangeDelegates(t *testing.T) {
	sp, err := NewSpline(circleControls(20, 24), SplineOpts{Spacing: 0.25, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	q := sp.PointAt(30).Add(V(0.5, 0))
	s, _ := sp.ProjectRange(q, 25, 35)
	if s < 25 || s > 35 {
		t.Errorf("spline windowed projection s=%.1f outside window", s)
	}
}

// projectRangeFullScan is the full-scan ProjectRange that the windowed
// implementation replaced, kept as the differential oracle: it visits
// every segment, re-wraps the window with math.Mod per segment to decide
// whether the segment overlaps it, and falls back to a full global scan.
func projectRangeFullScan(p *Polyline, q Vec2, s0, s1 float64) (s, lateral float64) {
	nSeg := len(p.cum) - 1
	scan := func(keep func(lo, hi float64) bool) (d2, s, lat float64) {
		d2 = math.Inf(1)
		for i := 0; i < nSeg; i++ {
			if !keep(p.cum[i], p.cum[i+1]) {
				continue
			}
			a, b := p.segStart(i), p.segEnd(i)
			ab := b.Sub(a)
			L2 := ab.NormSq()
			var t float64
			if L2 > 0 {
				t = Clamp(q.Sub(a).Dot(ab)/L2, 0, 1)
			}
			cp := a.Lerp(b, t)
			if d := q.Sub(cp).NormSq(); d < d2 {
				d2 = d
				s = p.cum[i] + t*math.Sqrt(L2)
				lat = math.Copysign(math.Sqrt(d), ab.Cross(q.Sub(a)))
			}
		}
		return d2, s, lat
	}
	L := p.Length()
	global := func() (float64, float64) {
		_, s, lat := scan(func(float64, float64) bool { return true })
		return Clamp(s, 0, L), lat
	}
	if s1 <= s0 {
		return global()
	}
	if !p.closed {
		s0 = Clamp(s0, 0, L)
		s1 = Clamp(s1, 0, L)
		if s1 <= s0 {
			return global()
		}
	} else if s1-s0 >= L {
		return global()
	}
	d2, s, lat := scan(func(lo, hi float64) bool {
		if !p.closed {
			return hi >= s0 && lo <= s1
		}
		w0 := math.Mod(s0, L)
		if w0 < 0 {
			w0 += L
		}
		w1 := w0 + (s1 - s0)
		if w1 <= L {
			return hi >= w0 && lo <= w1
		}
		return hi >= w0 || lo <= w1-L
	})
	if math.IsInf(d2, 1) {
		return global()
	}
	return Clamp(s, 0, L), lat
}

// curvatureOracle is Spline.CurvatureAt as it was before the lattice
// lookups learned to skip math.Mod and to walk forward: math.Mod wrap,
// binary-searched segment, linear interpolation.
func curvatureOracle(s *Spline, arc float64) float64 {
	p := s.lattice
	L := p.Length()
	w := Clamp(arc, 0, L)
	if p.closed {
		w = math.Mod(arc, L)
		if w < 0 {
			w += L
		}
	}
	i, t := p.segment(w)
	j := (i + 1) % len(s.kappa)
	return s.kappa[i]*(1-t) + s.kappa[j]*t
}

// sameBits reports whether two results are the same float64 values bit
// for bit (so -0 ≠ +0 and NaN = NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkProjectRange fails unless ProjectRange matches the full-scan oracle
// bit for bit.
func checkProjectRange(t *testing.T, p *Polyline, q Vec2, s0, s1 float64) {
	t.Helper()
	s, lat := p.ProjectRange(q, s0, s1)
	ws, wlat := projectRangeFullScan(p, q, s0, s1)
	if !sameBits(s, ws) || !sameBits(lat, wlat) {
		t.Fatalf("ProjectRange(%v, %g, %g) = (%v, %v), full scan (%v, %v)", q, s0, s1, s, lat, ws, wlat)
	}
}

// checkProject fails unless Project matches the full-scan oracle's global
// projection bit for bit.
func checkProject(t *testing.T, p *Polyline, q Vec2) {
	t.Helper()
	s, lat := p.Project(q)
	ws, wlat := projectRangeFullScan(p, q, 0, 0) // an empty window scans globally
	if !sameBits(s, ws) || !sameBits(lat, wlat) {
		t.Fatalf("Project(%v) = (%v, %v), full scan (%v, %v)", q, s, lat, ws, wlat)
	}
}

// checkCurvatureSweep fails unless a cursor swept over arcs, the spline's
// CurvatureAt and the pre-cursor oracle all agree bit for bit.
func checkCurvatureSweep(t *testing.T, sp *Spline, arcs []float64) {
	t.Helper()
	cur := NewCurvatureCursor(sp)
	for _, arc := range arcs {
		want := curvatureOracle(sp, arc)
		if got := sp.CurvatureAt(arc); !sameBits(got, want) {
			t.Fatalf("CurvatureAt(%g) = %v, oracle %v", arc, got, want)
		}
		if got := cur.CurvatureAt(arc); !sameBits(got, want) {
			t.Fatalf("cursor CurvatureAt(%g) = %v, oracle %v", arc, got, want)
		}
		if i, _ := sp.lattice.segment(sp.lattice.wrap(arc)); cur.seg != i {
			t.Fatalf("cursor at arc %g is on segment %d, binary search says %d", arc, cur.seg, i)
		}
	}
}

// windowCases are the window shapes the differential tests sweep, as
// (start, width) in units of the path length: inside, straddling the
// seam, negative, at and beyond 2L, empty, inverted and at least a lap.
var windowCases = [][2]float64{
	{0.1, 0.2}, {0.9, 0.2}, {0.95, 0.1}, {-0.05, 0.1}, {-0.6, 0.3}, {-1.3, 0.4},
	{1.9, 0.2}, {2.0, 0.1}, {2.7, 0.5}, {5.1, 0.05}, {0.3, 0}, {0.3, -0.1},
	{0.2, 1}, {0.2, 1.5}, {0.99, 0.98}, {0.5, 0.99}, {0, 1e-9}, {1, 1e-9},
	{0.25, 0.25}, {0.875, 0.375}, // ends on a square's vertices, plain and wrapped
}

func TestProjectRangeMatchesFullScan(t *testing.T) {
	square, err := NewClosedPolyline([]Vec2{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	open := mustPolyline(t, []Vec2{{0, 0}, {20, 0}, {20, 4}, {0, 4}})
	loop, err := NewSpline(circleControls(20, 24), SplineOpts{Spacing: 0.25, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, p := range []*Polyline{square, open, loop.lattice} {
		L := p.Length()
		queries := []Vec2{p.PointAt(0.3 * L).Add(V(0.4, -0.7)), p.PointAt(0.97 * L), V(1e3, -2e3), V(0, 0)}
		for _, q := range queries {
			checkProject(t, p, q)
			for _, w := range windowCases {
				s0 := w[0] * L
				checkProjectRange(t, p, q, s0, s0+w[1]*L)
			}
			checkProjectRange(t, p, q, nan, L)
			checkProjectRange(t, p, q, 0, nan)
			checkProjectRange(t, p, q, math.Inf(-1), math.Inf(1))
			checkProjectRange(t, p, q, 2*L, math.Inf(1))
		}
	}
}

func TestCurvatureCursorMatchesCurvatureAt(t *testing.T) {
	loop, err := NewSpline(circleControls(20, 24), SplineOpts{Spacing: 0.25, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	road, err := NewSpline([]Vec2{{0, 0}, {30, 5}, {60, -5}, {90, 20}}, SplineOpts{Spacing: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []*Spline{loop, road} {
		L := sp.Length()
		// A speed-preview sweep across the seam, a band that starts
		// behind zero, backward jumps, far laps, the lattice vertices
		// themselves and NaN.
		var arcs []float64
		for d := 0.0; d <= 40; d += 0.5 {
			arcs = append(arcs, L-10+d)
		}
		for d := -2.0; d <= 12; d++ {
			arcs = append(arcs, 1+d)
		}
		arcs = append(arcs, 0.5*L, 0.25*L, 2*L, 2*L-1e-9, 3.5*L, -L, -0.0, L, math.NaN(), 0.1*L)
		arcs = append(arcs, sp.lattice.cum...)
		checkCurvatureSweep(t, sp, arcs)
	}
}
