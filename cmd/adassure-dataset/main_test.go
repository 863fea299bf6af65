package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adassure"
)

// TestDatasetDeterministicAcrossWorkers: the CSV on stdout — and the
// post-collection stderr progress log — must be byte-identical whether
// the grid runs sequentially or fanned across the pool.
func TestDatasetDeterministicAcrossWorkers(t *testing.T) {
	gen := func(workers int) (string, string) {
		var out, errb bytes.Buffer
		argv := []string{"-seeds", "1", "-duration", "10", "-workers", fmt.Sprint(workers)}
		if err := run(argv, &out, &errb); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.String(), errb.String()
	}
	csv1, log1 := gen(1)
	csv4, log4 := gen(4)
	if csv1 != csv4 {
		t.Fatalf("CSV differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(csv1), len(csv4))
	}
	if log1 != log4 {
		t.Fatalf("stderr progress log differs between worker counts:\n--- 1\n%s\n--- 4\n%s", log1, log4)
	}
	lines := strings.Split(strings.TrimSpace(csv1), "\n")
	if len(lines) < 2 {
		t.Fatalf("corpus has %d lines, want header plus at least one row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

// TestDatasetObservabilityOutputs: -metrics and -events write parseable,
// non-empty artifacts, and the timeline carries every run's scenario span
// and violation episodes, not only the runner's job lanes.
func TestDatasetObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	events := filepath.Join(dir, "events.json")
	var out, errb bytes.Buffer
	argv := []string{
		"-seeds", "1", "-duration", "30", "-workers", "2",
		"-metrics", metrics, "-events", events,
	}
	if err := run(argv, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{metrics, events} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || b[0] != '{' && b[0] != '[' {
			t.Fatalf("%s is not a JSON document (starts %q)", p, b[:min(8, len(b))])
		}
	}
	if !strings.Contains(errb.String(), "metrics written to") {
		t.Fatalf("stderr missing metrics confirmation:\n%s", errb.String())
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := adassure.ReadEventLog(f)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, e := range lg.Events {
		cats[string(e.Cat)]++
		if e.Cat == "scenario" && !strings.HasSuffix(e.Track, "/s1/scenario") {
			t.Fatalf("scenario event on track %q, want <class>/s1/scenario", e.Track)
		}
	}
	for _, c := range []string{"runner", "scenario", "violation"} {
		if cats[c] == 0 {
			t.Errorf("event log has no %q events (categories: %v)", c, cats)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
