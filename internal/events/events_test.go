package events_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adassure/internal/events"
)

// --- ring buffer properties ---------------------------------------------

// TestRingNeverExceedsCapacity drives rings of assorted capacities with
// random emit counts and checks the flight-recorder contract after every
// single emit: the retained count never exceeds the capacity, sequence
// numbers stay strictly increasing, and the ring always holds exactly the
// newest events (the dropped count accounting for the rest).
func TestRingNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		total := capacity + rng.Intn(4*capacity+10)
		r := events.NewRecorder(capacity).WithoutWallClock()
		for i := 0; i < total; i++ {
			r.Instant(events.CatScenario, "tr", fmt.Sprintf("e%d", i), float64(i), nil)

			if got := r.Len(); got > capacity {
				t.Fatalf("cap %d: Len() = %d after %d emits", capacity, got, i+1)
			}
			evs := r.Events()
			if len(evs) != r.Len() {
				t.Fatalf("cap %d: Events() len %d != Len() %d", capacity, len(evs), r.Len())
			}
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Fatalf("cap %d: seq not increasing: %d after %d", capacity, evs[j].Seq, evs[j-1].Seq)
				}
			}
			// Newest-events invariant: the retained window is exactly the
			// suffix of the emitted stream.
			wantOldest := uint64(0)
			if i+1 > capacity {
				wantOldest = uint64(i + 1 - capacity)
			}
			if len(evs) > 0 && evs[0].Seq != wantOldest {
				t.Fatalf("cap %d: oldest retained seq = %d, want %d", capacity, evs[0].Seq, wantOldest)
			}
			if len(evs) > 0 && evs[len(evs)-1].Seq != uint64(i) {
				t.Fatalf("cap %d: newest retained seq = %d, want %d", capacity, evs[len(evs)-1].Seq, i)
			}
		}
		wantDropped := uint64(0)
		if total > capacity {
			wantDropped = uint64(total - capacity)
		}
		if r.Dropped() != wantDropped {
			t.Errorf("cap %d: Dropped() = %d, want %d", capacity, r.Dropped(), wantDropped)
		}
		if r.Capacity() != capacity {
			t.Errorf("cap %d: Capacity() = %d", capacity, r.Capacity())
		}
	}
}

func TestUnboundedRecorderKeepsEverything(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	const n = 500
	for i := 0; i < n; i++ {
		r.Begin(events.CatAttack, "a", "x", float64(i), nil)
	}
	if r.Len() != n || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatalf("unbounded recorder: len %d dropped %d cap %d", r.Len(), r.Dropped(), r.Capacity())
	}
}

// TestNonFiniteSimTime checks NaN/Inf timestamps collapse to NoSimTime
// instead of corrupting the stream.
func TestNonFiniteSimTime(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	r.Emit(events.Event{Kind: events.Instant, Track: "t", Name: "nan", T: math.NaN()})
	r.Emit(events.Event{Kind: events.Instant, Track: "t", Name: "inf", T: math.Inf(1)})
	for _, e := range r.Events() {
		if e.T != events.NoSimTime {
			t.Errorf("event %q: T = %v, want NoSimTime", e.Name, e.T)
		}
	}
}

// --- nil recorder zero-cost contract ------------------------------------

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *events.Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Instant(events.CatScenario, "t", "n", 1, nil)
		r.Begin(events.CatAttack, "t", "n", 2, nil)
		r.End(events.CatAttack, "t", "n", 3, nil)
		r.Emit(events.Event{})
		_ = r.Events()
		_ = r.Len()
		_ = r.Dropped()
		sc := r.Scope("x/")
		sc.Begin(events.CatViolation, "assertion/A1", "n", 4, nil)
		sc.Scope("y/").Instant(events.CatDiagnosis, "diagnosis", "n", 5, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v allocs/op, want 0", allocs)
	}
}

// --- scoped views -------------------------------------------------------

// TestScopeSharesRing checks that a scoped view is a window onto its
// parent's ring, not a copy: sequence numbers, retained count, dropped
// count and capacity are one set across the recorder and all its views.
func TestScopeSharesRing(t *testing.T) {
	root := events.NewRecorder(4).WithoutWallClock()
	a, b := root.Scope("a/"), root.Scope("b/")
	for i := 0; i < 3; i++ {
		root.Instant(events.CatScenario, "scenario", "r", float64(i), nil)
		a.Instant(events.CatScenario, "scenario", "a", float64(i), nil)
		b.Instant(events.CatScenario, "scenario", "b", float64(i), nil)
	}
	for _, r := range []*events.Recorder{root, a, b} {
		if r.Len() != 4 || r.Dropped() != 5 || r.Capacity() != 4 {
			t.Fatalf("view: len %d dropped %d cap %d, want 4/5/4", r.Len(), r.Dropped(), r.Capacity())
		}
		evs := r.Events()
		if evs[0].Seq != 5 || evs[3].Seq != 8 {
			t.Fatalf("view retains seq %d..%d, want 5..8", evs[0].Seq, evs[3].Seq)
		}
	}
	var tracks []string
	for _, e := range root.Events() {
		tracks = append(tracks, e.Track)
	}
	want := []string{"b/scenario", "scenario", "a/scenario", "b/scenario"}
	if !reflect.DeepEqual(tracks, want) {
		t.Fatalf("tracks = %q, want %q", tracks, want)
	}
}

// TestScopeNests checks that scopes concatenate, outermost first, and
// that a view never rewrites its parent's tracks.
func TestScopeNests(t *testing.T) {
	root := events.NewRecorder(0).WithoutWallClock()
	cell := root.Scope("search/")
	cell.Scope("gnss/").Scope("3/").End(events.CatViolation, "assertion/A13", "A13", 1, nil)
	cell.Begin(events.CatScenario, "scenario", "s", 0, nil)
	root.Begin(events.CatRunner, "runner/worker-0", "job", events.NoSimTime, nil)
	var tracks []string
	for _, e := range root.Events() {
		tracks = append(tracks, e.Track)
	}
	want := []string{"search/gnss/3/assertion/A13", "search/scenario", "runner/worker-0"}
	if !reflect.DeepEqual(tracks, want) {
		t.Fatalf("tracks = %q, want %q", tracks, want)
	}
}

// TestScopeConcurrentSiblings emits from many sibling views at once (run
// it under -race): every event lands once, sequence numbers stay unique
// and each view's events carry its own prefix.
func TestScopeConcurrentSiblings(t *testing.T) {
	root := events.NewRecorder(0).WithoutWallClock()
	const views, per = 8, 200
	var wg sync.WaitGroup
	for v := 0; v < views; v++ {
		wg.Add(1)
		go func(sc *events.Recorder) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sc.Instant(events.CatScenario, "scenario", "e", float64(i), nil)
			}
		}(root.Scope(fmt.Sprintf("s%d/", v)))
	}
	wg.Wait()
	evs := root.Events()
	if len(evs) != views*per {
		t.Fatalf("%d events, want %d", len(evs), views*per)
	}
	perTrack := map[string]int{}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		perTrack[e.Track]++
	}
	for v := 0; v < views; v++ {
		if n := perTrack[fmt.Sprintf("s%d/scenario", v)]; n != per {
			t.Fatalf("view s%d/ landed %d events, want %d", v, n, per)
		}
	}
}

// BenchmarkNilRecorder pins the detached-events overhead, mirroring
// BenchmarkNilRegistry in internal/obs: a nil recorder must be a branch,
// not a cost.
func BenchmarkNilRecorder(b *testing.B) {
	var r *events.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Begin(events.CatViolation, "assertion/A1", "A1", 1.5, nil)
		r.End(events.CatViolation, "assertion/A1", "A1", 2.5, nil)
	}
}

// BenchmarkRingEmit measures the attached flight-recorder hot path.
func BenchmarkRingEmit(b *testing.B) {
	r := events.NewRecorder(1024).WithoutWallClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Instant(events.CatScenario, "t", "n", float64(i), nil)
	}
}

// --- serialisation ------------------------------------------------------

func TestLogJSONRoundTrip(t *testing.T) {
	r := events.NewRecorder(4).WithoutWallClock()
	for i := 0; i < 7; i++ {
		r.Begin(events.CatViolation, "assertion/A1", "A1 ep", float64(i),
			map[string]float64{"severity": 2, "first_breach": float64(i) - 0.5})
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lg, err := events.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(lg, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", lg, want)
	}
	if lg.Dropped != 3 || lg.Capacity != 4 || len(lg.Events) != 4 {
		t.Fatalf("log header wrong: %+v", lg)
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad schema":  `{"schema":"other/v9","events":[]}`,
		"seq regress": `{"schema":"adassure/events/v1","events":[{"seq":2,"t":1,"kind":"begin","cat":"attack","track":"a","name":"x"},{"seq":1,"t":2,"kind":"end","cat":"attack","track":"a","name":"x"}]}`,
		"not json":    `hello`,
		"bad kind":    `{"schema":"adassure/events/v1","events":[{"seq":0,"t":1,"kind":"zigzag","cat":"attack","track":"a","name":"x"}]}`,
	}
	for name, in := range cases {
		if _, err := events.ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON accepted invalid input", name)
		}
	}
}

// --- timeline ordering --------------------------------------------------

func TestSortForTimeline(t *testing.T) {
	evs := []events.Event{
		{Seq: 0, T: events.NoSimTime, Name: "wall-a"},
		{Seq: 1, T: 5, Name: "sim-late"},
		{Seq: 2, T: 1, Name: "sim-early"},
		{Seq: 3, T: 1, Name: "sim-early-2"},
		{Seq: 4, T: events.NoSimTime, Name: "wall-b"},
	}
	events.SortForTimeline(evs)
	gotNames := make([]string, len(evs))
	for i, e := range evs {
		gotNames[i] = e.Name
	}
	want := []string{"sim-early", "sim-early-2", "sim-late", "wall-a", "wall-b"}
	if !reflect.DeepEqual(gotNames, want) {
		t.Fatalf("order = %v, want %v", gotNames, want)
	}
}

// --- perfetto export ----------------------------------------------------

// TestPerfettoSchema validates the export against the Chrome trace-event
// schema: every entry carries ph/ts/pid/tid, phases are from the known
// set, B/E are balanced per (pid, tid), and both clock-domain processes
// are named.
func TestPerfettoSchema(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	r.Begin(events.CatScenario, "s0/scenario", "run", 0, map[string]float64{"seed": 1})
	r.Begin(events.CatAttack, "s0/attack", "drift", 20, nil)
	r.Begin(events.CatViolation, "s0/assertion/A13", "A13", 26.5, nil)
	r.End(events.CatViolation, "s0/assertion/A13", "A13", 42.1, nil)
	r.End(events.CatAttack, "s0/attack", "drift", 50, nil)
	r.Instant(events.CatDiagnosis, "s0/diagnosis", "gnss-drift-spoof", 55, map[string]float64{"confidence": 0.25})
	r.End(events.CatScenario, "s0/scenario", "run", 55, nil)
	r.Begin(events.CatRunner, "runner/worker-0", "job 0", events.NoSimTime, nil)
	r.End(events.CatRunner, "runner/worker-0", "job 0", events.NoSimTime, nil)

	var buf bytes.Buffer
	if err := events.WritePerfetto(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}

	var file struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}

	depth := map[string]int{}
	processNames := map[string]bool{}
	for i, te := range file.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := te[field]; !ok {
				t.Fatalf("traceEvents[%d] missing required field %q: %v", i, field, te)
			}
		}
		var ph string
		if err := json.Unmarshal(te["ph"], &ph); err != nil {
			t.Fatal(err)
		}
		var pid, tid int
		if err := json.Unmarshal(te["pid"], &pid); err != nil {
			t.Fatalf("traceEvents[%d]: pid not a number: %v", i, err)
		}
		if err := json.Unmarshal(te["tid"], &tid); err != nil {
			t.Fatalf("traceEvents[%d]: tid not a number: %v", i, err)
		}
		var ts float64
		if err := json.Unmarshal(te["ts"], &ts); err != nil {
			t.Fatalf("traceEvents[%d]: ts not a number: %v", i, err)
		}
		key := fmt.Sprintf("%d/%d", pid, tid)
		switch ph {
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("traceEvents[%d]: E without matching B on %s", i, key)
			}
		case "i", "M":
		default:
			t.Fatalf("traceEvents[%d]: unknown phase %q", i, ph)
		}
		if ph == "M" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(te["args"], &args); err == nil {
				processNames[args.Name] = true
			}
		}
	}
	for key, d := range depth {
		if d != 0 {
			t.Errorf("track %s: %d unclosed B spans", key, d)
		}
	}
	for _, want := range []string{"sim-time", "wall-clock"} {
		if !processNames[want] {
			t.Errorf("missing %q process/thread metadata", want)
		}
	}
}
