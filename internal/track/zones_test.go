package track

import (
	"math"
	"testing"
	"time"

	"adassure/internal/geom"
)

func TestWithZonesValidation(t *testing.T) {
	tr, err := Straight(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WithZones(SpeedZone{Start: 10, End: 5, Limit: 3}); err == nil {
		t.Error("inverted zone accepted")
	}
	if _, err := tr.WithZones(SpeedZone{Start: 10, End: 20, Limit: 0}); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := tr.WithZones(SpeedZone{Start: 500, End: 600, Limit: 3}); err == nil {
		t.Error("zone beyond path accepted")
	}
	if _, err := tr.WithZones(
		SpeedZone{Start: 10, End: 30, Limit: 3},
		SpeedZone{Start: 25, End: 40, Limit: 2},
	); err == nil {
		t.Error("overlapping zones accepted")
	}
}

func TestLimitAt(t *testing.T) {
	base, err := Straight(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(
		SpeedZone{Start: 50, End: 80, Limit: 3},
		SpeedZone{Start: 120, End: 140, Limit: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ s, want float64 }{
		{0, 8}, {49.9, 8}, {50, 3}, {79.9, 3}, {80, 8}, {130, 2}, {150, 8},
	}
	for _, c := range cases {
		if got := tr.LimitAt(c.s); got != c.want {
			t.Errorf("LimitAt(%g) = %g, want %g", c.s, got, c.want)
		}
	}
	// Zone limits never raise above the base limit.
	up, err := base.WithZones(SpeedZone{Start: 10, End: 20, Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := up.LimitAt(15); got != 8 {
		t.Errorf("zone must not raise the base limit: got %g", got)
	}
	// Original track untouched (value-copy semantics).
	if base.LimitAt(60) != 8 {
		t.Error("WithZones mutated the receiver")
	}
}

func TestLimitAtWrapsClosedTracks(t *testing.T) {
	base, err := Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 0, End: 10, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	L := tr.Path().Length()
	if got := tr.LimitAt(L + 5); got != 2 {
		t.Errorf("wrapped LimitAt = %g, want 2", got)
	}
	if got := tr.LimitAt(-L + 5); got != 2 {
		t.Errorf("negative-wrapped LimitAt = %g, want 2", got)
	}
}

func TestFromWaypoints(t *testing.T) {
	wps := []geom.Vec2{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 10}, {X: 90, Y: 10}}
	tr, err := FromWaypoints("depot-run", wps, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "depot-run" || tr.SpeedLimit() != 5 {
		t.Error("metadata wrong")
	}
	if math.Abs(tr.Path().Length()-95) > 5 {
		t.Errorf("length = %g, want ~95", tr.Path().Length())
	}
	// Waypoints lie on the route.
	for _, w := range wps {
		if _, lat := tr.Path().Project(w); math.Abs(lat) > 0.1 {
			t.Errorf("waypoint %v is %.3f m off the route", w, lat)
		}
	}
	if _, err := FromWaypoints("bad", nil, false, 5); err == nil {
		t.Error("empty waypoints accepted")
	}
}

func TestZonesCopied(t *testing.T) {
	base, err := Straight(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 10, End: 20, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	zs := tr.Zones()
	zs[0].Limit = 99
	if tr.Zones()[0].Limit != 3 {
		t.Error("Zones returned aliased storage")
	}
}

// TestLimitAtReturnsOnHugeArcs: on a closed track LimitAt must reduce any
// arc in bounded time. Reducing by repeated subtraction never returned for
// ±Inf and looked |s|/L times for huge finite arcs.
func TestLimitAtReturnsOnHugeArcs(t *testing.T) {
	base, err := Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 0, End: 10, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300, math.NaN()} {
			if got := tr.LimitAt(s); got != 2 && got != 8 {
				t.Errorf("LimitAt(%g) = %g, want a track limit", s, got)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("LimitAt did not return for an infinite or huge arc")
	}
}

// TestLimitAtWrapMatchesSubtraction holds the wrap bit-equal to reduction
// by repeated subtraction on [−L, 2L), the arcs a control tick passes.
func TestLimitAtWrapMatchesSubtraction(t *testing.T) {
	base, err := Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	L := base.Path().Length()
	subtract := func(s float64) float64 {
		for s < 0 {
			s += L
		}
		for s >= L {
			s -= L
		}
		return s
	}
	arcs := []float64{-L, -1e-300, -0.0, 0, math.Nextafter(L, 0), L, math.Nextafter(2*L, 0), -math.Nextafter(L, 0)}
	for s := -L; s < 2*L; s += 0.173 {
		arcs = append(arcs, s)
	}
	for _, s := range arcs {
		if got, want := wrapArc(s, L), subtract(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("wrapArc(%v) = %v, subtraction %v", s, got, want)
		}
	}
}
