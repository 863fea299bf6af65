// Package planner supplies the reference inputs the controllers track:
// a curvature-limited target-speed profile with braking preview and
// accel/jerk shaping, and a route-progress tracker that handles closed-loop
// lap wrapping and open-route completion.
package planner

import (
	"fmt"
	"math"

	"adassure/internal/geom"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// SpeedProfile computes the target speed at any arc position of a path,
// respecting the track speed limit, the lateral-acceleration envelope on
// curvature, and a braking preview so the vehicle slows before corners
// rather than in them.
type SpeedProfile struct {
	path        geom.Path
	limitAt     func(s float64) float64
	maxLat      float64
	maxBrake    float64
	preview     float64 // lookahead distance for corner braking, m
	previewStep float64
}

// NewSpeedProfile builds a profile for a path under the vehicle's limits.
func NewSpeedProfile(path geom.Path, speedLimit float64, p vehicle.Params) (*SpeedProfile, error) {
	if path == nil {
		return nil, fmt.Errorf("planner: nil path")
	}
	if speedLimit <= 0 {
		return nil, fmt.Errorf("planner: speed limit must be positive, got %g", speedLimit)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cap := math.Min(speedLimit, p.MaxSpeed)
	return &SpeedProfile{
		path:        path,
		limitAt:     func(float64) float64 { return cap },
		maxLat:      p.MaxLatAccel,
		maxBrake:    p.MaxBrake * 0.7, // comfort braking, not emergency
		preview:     40,
		previewStep: 0.5,
	}, nil
}

// NewSpeedProfileForTrack builds a profile that additionally honours the
// track's speed zones (depot areas, crossings) via Track.LimitAt.
func NewSpeedProfileForTrack(tr *track.Track, p vehicle.Params) (*SpeedProfile, error) {
	if tr == nil {
		return nil, fmt.Errorf("planner: nil track")
	}
	sp, err := NewSpeedProfile(tr.Path(), tr.SpeedLimit(), p)
	if err != nil {
		return nil, err
	}
	sp.limitAt = func(s float64) float64 { return math.Min(tr.LimitAt(s), p.MaxSpeed) }
	return sp, nil
}

// latMargin derates the lateral-acceleration budget in the speed plan so
// that realistic speed-tracking overshoot into a corner stays inside the
// vehicle's actual envelope.
const latMargin = 0.85

// curveSpeed returns the curvature- and zone-limited speed at arc
// position s, reading the curvature through the caller's sweep cursor.
func (sp *SpeedProfile) curveSpeed(cur *geom.CurvatureCursor, s float64) float64 {
	limit := sp.limitAt(s)
	k := math.Abs(cur.CurvatureAt(s))
	if k < 1e-6 {
		return limit
	}
	return math.Min(limit, math.Sqrt(sp.maxLat*latMargin/k))
}

// TargetAt returns the target speed at arc position s, including the
// braking preview: the speed is lowered so that any upcoming curvature
// bound within the preview window is reachable under comfort braking.
// The preview samples advance along the path, so one curvature cursor
// walks them all; it lives on this call's stack, which keeps TargetAt
// safe for concurrent use.
//
// The preview stops at the braking horizon, the first sample distance d
// with √(2·a·d) ≥ v: every sample from there on has a reachable speed of
// at least √(2·a·d) ≥ v (rounding is monotone and ahead² ≥ 0, also when
// the two terms fuse into one FMA; a NaN ahead never lowers v), so none
// can lower v. The result is the full preview's bit for bit.
func (sp *SpeedProfile) TargetAt(s float64) float64 {
	cur := geom.NewCurvatureCursor(sp.path)
	v := sp.curveSpeed(&cur, s)
	for d := sp.previewStep; d <= sp.preview; d += sp.previewStep {
		if math.Sqrt(2*sp.maxBrake*d) >= v {
			break
		}
		ahead := sp.curveSpeed(&cur, s+d)
		// v² = v_ahead² + 2·a·d  (braking backward from the constraint)
		reachable := math.Sqrt(ahead*ahead + 2*sp.maxBrake*d)
		if reachable < v {
			v = reachable
		}
	}
	return v
}

// Follower keeps a continuous arc position on a path across control steps
// by projecting into a bounded window around the previous position. On
// self-intersecting routes (figure-eight) the globally nearest point can
// belong to the other branch; the windowed projection sticks to the branch
// being driven. A result farther than MaxLat from the path falls back to a
// global projection (the vehicle — or its spoofed estimate — genuinely
// teleported).
type Follower struct {
	path geom.Path
	rp   geom.RangeProjector // nil when the path cannot window-project
	// Back/Ahead bound the search window relative to the last position.
	Back, Ahead float64
	// MaxLat is the lateral offset beyond which the follower re-acquires
	// globally.
	MaxLat float64
	// The last point Project was given and its result.
	lastQ          geom.Vec2
	lastS, lastLat float64
	init           bool
}

// NewFollower builds a follower with standard window geometry.
func NewFollower(path geom.Path) (*Follower, error) {
	if path == nil {
		return nil, fmt.Errorf("planner: nil path")
	}
	f := &Follower{path: path, Back: 15, Ahead: 25, MaxLat: 8}
	if rp, ok := path.(geom.RangeProjector); ok {
		f.rp = rp
	}
	return f, nil
}

// Project returns the continuous arc position and lateral offset of q and
// moves the window to it.
func (f *Follower) Project(q geom.Vec2) (s, lateral float64) {
	s, lateral = f.project(q)
	f.lastQ, f.lastS, f.lastLat, f.init = q, s, lateral, true
	return s, lateral
}

// project is Project without moving the window.
func (f *Follower) project(q geom.Vec2) (s, lateral float64) {
	if !f.init || f.rp == nil {
		return f.path.Project(q)
	}
	s, lateral = f.rp.ProjectRange(q, f.lastS-f.Back, f.lastS+f.Ahead)
	if math.Abs(lateral) > f.MaxLat {
		// Teleport (attack or recovery): re-acquire globally.
		s, lateral = f.path.Project(q)
	}
	return s, lateral
}

// View returns the follower's path as a geom.Path whose Project answers
// from the follower instead of scanning the whole path: the point the
// follower last projected gets that same result, any other point (a
// front axle, a held estimate) is projected over the follower's current
// window with the same MaxLat global fall-back, and the view never moves
// the window. Length, PointAt, HeadingAt, CurvatureAt and Closed are the
// path's own. Handing the view to a controller makes it reason about the
// reference point the follower, and so the monitor, uses, and spares it a
// global rescan every tick.
func (f *Follower) View() geom.Path { return view{f} }

// view is the geom.Path Follower.View returns.
type view struct{ f *Follower }

func (v view) Length() float64               { return v.f.path.Length() }
func (v view) PointAt(s float64) geom.Vec2   { return v.f.path.PointAt(s) }
func (v view) HeadingAt(s float64) float64   { return v.f.path.HeadingAt(s) }
func (v view) CurvatureAt(s float64) float64 { return v.f.path.CurvatureAt(s) }
func (v view) Closed() bool                  { return v.f.path.Closed() }
func (v view) Project(q geom.Vec2) (float64, float64) {
	f := v.f
	if f.init && q == f.lastQ {
		return f.lastS, f.lastLat
	}
	return f.project(q)
}

// Progress tracks how far along a route the vehicle has travelled,
// monotonically, across lap wraps on closed paths. It converts raw
// projections (which jump back to ~0 at each wrap) into cumulative
// distance, and detects completion of open routes.
type Progress struct {
	path     geom.Path
	lastS    float64
	total    float64
	laps     int
	started  bool
	finished bool
	// finishMargin is how close to the end of an open path counts as done.
	finishMargin float64
}

// NewProgress starts tracking progress along a path.
func NewProgress(path geom.Path) (*Progress, error) {
	if path == nil {
		return nil, fmt.Errorf("planner: nil path")
	}
	return &Progress{path: path, finishMargin: 2.0}, nil
}

// Observe folds a new projected arc position into the cumulative progress
// and returns the updated total distance. Small backward moves (projection
// jitter) reduce progress accordingly; a jump of more than half the path
// length on a closed path is interpreted as a lap wrap.
func (pr *Progress) Observe(s float64) float64 {
	if !pr.started {
		pr.lastS = s
		pr.started = true
		return pr.total
	}
	L := pr.path.Length()
	ds := s - pr.lastS
	if pr.path.Closed() {
		// Wrap: choose the representation of ds with the smallest magnitude.
		if ds > L/2 {
			ds -= L
		} else if ds < -L/2 {
			ds += L
			pr.laps++
		}
	}
	pr.total += ds
	pr.lastS = s
	if !pr.path.Closed() && s >= L-pr.finishMargin {
		pr.finished = true
	}
	return pr.total
}

// Total returns cumulative signed progress in metres.
func (pr *Progress) Total() float64 { return pr.total }

// Laps returns the number of completed laps (closed paths only).
func (pr *Progress) Laps() int { return pr.laps }

// Finished reports whether an open route has been completed.
func (pr *Progress) Finished() bool { return pr.finished }
