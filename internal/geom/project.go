package geom

import (
	"math"
	"sort"
)

// RangeProjector is implemented by paths that can project a point onto a
// bounded arc-length window. Route followers use it to keep a continuous
// arc position across self-intersecting paths (e.g. a figure-eight), where
// the globally nearest point may belong to the other branch.
type RangeProjector interface {
	// ProjectRange returns the arc position and signed lateral offset of
	// the point on the path closest to q, considering only arc positions
	// in [s0, s1] (wrapped on closed paths).
	ProjectRange(q Vec2, s0, s1 float64) (s, lateral float64)
}

// ProjectRange implements RangeProjector for polylines. The window is
// wrapped once and the overlapping segments are found by binary search
// over the cumulative arc lengths, so the cost is proportional to the
// window, not to the path. Segments are visited in ascending index order
// (a window wrapping past the seam visits the low range, then the high
// range), with Project's per-segment arithmetic, so any point whose
// globally nearest segment lies inside the window projects bit-identically
// to Project. An empty, inverted or NaN window, a closed-path window
// spanning the whole loop, and an open-path window clamped to nothing all
// fall back to Project.
func (p *Polyline) ProjectRange(q Vec2, s0, s1 float64) (s, lateral float64) {
	if math.IsNaN(s0) || math.IsNaN(s1) || s1 <= s0 {
		return p.Project(q)
	}
	L := p.Length()
	best := nearest{d2: math.Inf(1)}
	switch {
	case !p.closed:
		s0 = Clamp(s0, 0, L)
		s1 = Clamp(s1, 0, L)
		if s1 <= s0 {
			return p.Project(q)
		}
		p.nearestIn(q, p.firstSeg(s0), p.endSeg(s1), &best)
	case s1-s0 >= L:
		return p.Project(q)
	default:
		w0 := math.Mod(s0, L)
		if w0 < 0 {
			w0 += L
		}
		w1 := w0 + (s1 - s0)
		if w1 <= L {
			p.nearestIn(q, p.firstSeg(w0), p.endSeg(w1), &best)
			break
		}
		// Wrapped: segments starting at or before w1-L, then segments
		// ending at or after w0; a segment long enough to be in both is
		// visited once.
		low := p.endSeg(w1 - L)
		p.nearestIn(q, 0, low, &best)
		p.nearestIn(q, max(low, p.firstSeg(w0)), len(p.cum)-1, &best)
	}
	if math.IsInf(best.d2, 1) {
		return p.Project(q)
	}
	// Same one-ULP guard as Project: the summed cum[] and the recomputed
	// segment Sqrt can land the arc marginally past Length().
	return Clamp(best.s, 0, L), best.lat
}

// firstSeg returns the first segment i with cum[i+1] ≥ w (the segment
// count when there is none).
func (p *Polyline) firstSeg(w float64) int {
	k := sort.SearchFloat64s(p.cum, w) // first vertex with cum ≥ w
	if k > 0 {
		k--
	}
	return k
}

// endSeg returns one past the last segment i with cum[i] ≤ w.
func (p *Polyline) endSeg(w float64) int {
	k := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] > w })
	return min(k, len(p.cum)-1)
}

// ProjectRange implements RangeProjector for splines via the lattice.
func (s *Spline) ProjectRange(q Vec2, s0, s1 float64) (arc, lateral float64) {
	return s.lattice.ProjectRange(q, s0, s1)
}

var (
	_ RangeProjector = (*Polyline)(nil)
	_ RangeProjector = (*Spline)(nil)
)
