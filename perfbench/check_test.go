package main

import (
	"bytes"
	"net/http"
	"os"
	"testing"

	"adassure"
	"adassure/internal/core"
	"adassure/internal/service"
	"adassure/internal/stream"
)

// The output checks are what feed failed/attempted; each must catch the
// corruption it exists for.

func TestCheckGoldenCatchesCorruption(t *testing.T) {
	chdirRoot(t)
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderExperiment(warmupID, adassure.ExperimentOptions{Quick: true, Seeds: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(warmupID, got, goldens[warmupID]); err != nil {
		t.Fatalf("pristine rendering rejected: %v", err)
	}
	corrupt := bytes.Clone(goldens[warmupID])
	corrupt[len(corrupt)/2] ^= 1
	if err := checkGolden(warmupID, got, corrupt); err == nil {
		t.Fatal("a corrupted golden file was not caught")
	}
	if err := checkGolden(warmupID, got[:len(got)-1], goldens[warmupID]); err == nil {
		t.Fatal("a truncated rendering was not caught")
	}
}

func TestCheckRunReplyCatchesCorruption(t *testing.T) {
	first := []byte(`{"summary":{"steps":600},"trace_id":"a"}`)
	ok := func(cache string, body []byte) *service.CallInfo {
		return &service.CallInfo{Status: http.StatusOK, Cache: cache, Body: body}
	}
	for _, tc := range []struct {
		name  string
		fresh bool
		info  *service.CallInfo
		want  bool
	}{
		{"miss", true, ok("miss", first), true},
		{"coalesced", true, ok("coalesced", first), true},
		{"hit", false, ok("hit", first), true},
		{"fresh key served from cache", true, ok("hit", first), false},
		{"repeat key re-simulated", false, ok("miss", first), false},
		{"hit body differs", false, ok("hit", bytes.Replace(first, []byte("600"), []byte("601"), 1)), false},
		{"queue full", true, &service.CallInfo{Status: http.StatusTooManyRequests, Body: []byte(`{}`)}, false},
	} {
		err := checkRunReply(tc.fresh, tc.info, first)
		if (err == nil) != tc.want {
			t.Errorf("%s: checkRunReply = %v, want ok=%v", tc.name, err, tc.want)
		}
	}
}

func TestCheckSessionCatchesMismatch(t *testing.T) {
	rec := recording{
		name:   "r",
		frames: make([]core.Frame, 3),
		ref:    []core.Violation{{AssertionID: "A1", T: 1.5}},
	}
	closed := func(mut func(*stream.Event)) *service.StreamResult {
		ev := stream.Event{Kind: stream.EventSessionClosed, Reason: stream.ReasonEOF,
			Stats: &stream.Stats{Frames: 3, Violations: 1}}
		mut(&ev)
		return &service.StreamResult{Status: 200, Cache: "bypass", Events: []stream.Event{
			{Kind: stream.EventViolationOpened, Violation: &stream.WireViolation{AssertionID: "A1", T: 1.5}},
			ev,
		}}
	}
	if err := checkSession(closed(func(*stream.Event) {}), rec); err != nil {
		t.Fatalf("matching session rejected: %v", err)
	}
	for name, mut := range map[string]func(*stream.Event){
		"violation count": func(e *stream.Event) { e.Stats.Violations = 2 },
		"rejected frame":  func(e *stream.Event) { e.Stats.Rejected = 1 },
		"frames lost":     func(e *stream.Event) { e.Stats.Frames = 2 },
		"abnormal close":  func(e *stream.Event) { e.Reason, e.Code = stream.ReasonBudget, 400 },
	} {
		if err := checkSession(closed(mut), rec); err == nil {
			t.Errorf("%s: mismatch not caught", name)
		}
	}
	moved := closed(func(*stream.Event) {})
	moved.Events[0].Violation.T = 2
	if err := checkSession(moved, rec); err == nil {
		t.Error("a violation at another time was not caught")
	}
}

// TestPlanIsSeeded pins the serve inputs to the seed: the same seed gives
// the same request sequence, another seed another one, and fresh keys
// never repeat across clients.
func TestPlanIsSeeded(t *testing.T) {
	seq := func(seed int64, client int) []service.Request {
		p := newClientPlan(seed, client, 2)
		var out []service.Request
		for i := 0; i < 40; i++ {
			r, _, _ := p.next(i)
			out = append(out, r)
		}
		return out
	}
	a, b := seq(1, 0), seq(1, 0)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
	}
	if seq(2, 0)[0].Key() == a[0].Key() {
		t.Error("seed 2 starts with seed 1's first request")
	}
	seen := map[string]int{}
	for c := 0; c < 2; c++ {
		for i, r := range seq(1, c) {
			if i%freshEvery != 0 {
				continue
			}
			canon, err := r.Canonicalize(600)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[canon.Key()]; dup && prev != c {
				t.Fatalf("clients %d and %d share a fresh key", prev, c)
			}
			seen[canon.Key()] = c
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "kid", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "kid", ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps the first
		{Name: "kid", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	if got["root"].self != 100-40-10 {
		t.Errorf("root self = %d, want 50", got["root"].self)
	}
	if got["kid"].total != 30+20+30 {
		t.Errorf("kid total = %d, want 80", got["kid"].total)
	}
}

// chdirRoot moves to the repository root, where the benchmark runs.
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}
