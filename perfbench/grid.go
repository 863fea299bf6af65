package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adassure"
	"adassure/internal/attacks"
	"adassure/internal/metrics"
	"adassure/internal/obs"
	"adassure/internal/track"
)

// goldenIDs is every experiment the harness golden suite pins; their
// quick-mode, one-seed renderings are byte-identical for any worker count.
var goldenIDs = []string{
	"T1", "T2", "T3", "T4", "T5", "T6",
	"F3", "F5", "F6",
	"X1", "X2", "X3", "X4", "X5",
	"M1", "S1",
}

// goldenDir is where the harness keeps the golden renderings, relative to
// the repository root the benchmark runs from.
const goldenDir = "internal/harness/testdata/golden"

// warmupID is the experiment the set-up renders once so that lazy
// initialisation is paid before the first timed pass (checked like any
// other rendering).
const warmupID = "F6"

// passSeconds is the nominal length of one grid pass, from which the
// number of passes is sized.
const passSeconds = 10

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

func loadGoldens() (map[string][]byte, error) {
	out := make(map[string][]byte, len(goldenIDs))
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("read golden (run from the repository root): %w", err)
		}
		out[id] = b
	}
	return out, nil
}

// renderExperiment runs one experiment and returns its plain-text table.
func renderExperiment(id string, opts adassure.ExperimentOptions) ([]byte, error) {
	tb, err := adassure.RunExperiment(id, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkGolden reports a rendering that differs from its golden file.
func checkGolden(id string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("%s rendering differs from its golden file at byte %d", id, i)
	}
	return nil
}

// gridPass renders every golden experiment once, checking each, and
// returns the per-experiment latencies.
func gridPass(goldens map[string][]byte, opts adassure.ExperimentOptions, rep *report) []time.Duration {
	lat := make([]time.Duration, 0, len(goldenIDs))
	for _, id := range goldenIDs {
		t0 := time.Now()
		got, err := renderExperiment(id, opts)
		lat = append(lat, time.Since(t0))
		if err == nil {
			err = checkGolden(id, got, goldens[id])
		}
		rep.check(err)
	}
	return lat
}

func gridSetup(opts adassure.ExperimentOptions) (map[string][]byte, []float64, error) {
	var goldens map[string][]byte
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if goldens, err = loadGoldens(); err != nil {
			return nil, nil, err
		}
		got, err := renderExperiment(warmupID, opts)
		if err == nil {
			err = checkGolden(warmupID, got, goldens[warmupID])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return goldens, setups, nil
}

// runGrid is the paper-reproduction workload. Its inputs are fixed by the
// goldens, so the seed does not change them.
func runGrid(e env, traced bool) (*report, error) {
	rep := newReport("grid", 1)
	opts := adassure.ExperimentOptions{Quick: true, Seeds: 1, Workers: e.nproc}
	goldens, setups, err := gridSetup(opts)
	if err != nil {
		return nil, err
	}
	if traced {
		return gridTraced(e, goldens, opts, rep)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.samples["setup_s"] = len(setups)

	// A fixed number of whole passes, sized from the measuring time at a
	// nominal passSeconds each so that it does not depend on how fast the
	// code runs; every experiment counts with its median pass.
	n := max(1, int(e.seconds/(passSeconds*time.Second)))
	perExp := make([][]float64, len(goldenIDs))
	var passes []float64
	a0 := allocBytes()
	for p := 0; p < n; p++ {
		p0 := time.Now()
		for i, d := range gridPass(goldens, opts, rep) {
			perExp[i] = append(perExp[i], float64(d)/1e6)
		}
		passes = append(passes, time.Since(p0).Seconds())
	}
	alloc := allocBytes() - a0

	ms := make([]float64, len(goldenIDs))
	var sum float64
	for i, xs := range perExp {
		ms[i] = median(xs)
		sum += ms[i]
	}
	rep.metrics["ops_per_s"] = float64(len(ms)) / (sum / 1e3)
	rep.metrics["p50_ms"] = metrics.Percentile(ms, 50)
	rep.metrics["p90_ms"] = metrics.Percentile(ms, 90)
	rep.metrics["alloc_kib_per_op"] = float64(alloc) / 1024 / float64(n*len(goldenIDs))
	for _, m := range []string{"ops_per_s", "p50_ms", "p90_ms"} {
		rep.samples[m] = len(ms)
	}
	rep.samples["alloc_kib_per_op"] = n * len(goldenIDs)
	rep.note("passes %d, wall_s per pass: median %.3f (%v)", len(passes), median(passes), passes)
	return rep, nil
}

// gridTraced renders one pass with a metrics registry attached (for the
// runner's busy share) and drives the tick ledger over the campaign cells
// the grid is made of: every standard attack class × controller on
// urban-loop, 55 s each.
func gridTraced(e env, goldens map[string][]byte, opts adassure.ExperimentOptions, rep *report) (*report, error) {
	tr := newTracer()
	reg := obs.NewRegistry()
	opts.Obs = reg
	pass := tr.open("grid.pass", -1)
	for _, id := range goldenIDs {
		sp := tr.open("experiment "+id, pass)
		got, err := renderExperiment(id, opts)
		tr.close(sp)
		if err == nil {
			err = checkGolden(id, got, goldens[id])
		}
		rep.check(err)
	}
	wall := tr.close(pass)
	snap := reg.Snapshot()
	rep.metrics["runner.busy_share"] = float64(snap.Histograms["runner.job_ns"].Sum) / (float64(wall) * float64(e.nproc))
	rep.samples["runner.busy_share"] = int(snap.Histograms["runner.job_ns"].Count)
	rep.note("traced pass (registry attached): wall_s %.3f", float64(wall)/1e9)

	cat, err := track.Catalog(6)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, class := range attacks.StandardClasses() {
		for _, ctl := range []string{"pure-pursuit", "stanley", "pid-lateral", "lqr-mpc"} {
			cells = append(cells, cell{
				track: cat["urban-loop"], controller: ctl, class: class,
				window: attacks.Window{Start: 20, End: 50}, seed: 1, duration: 55,
			})
		}
	}
	root := tr.open("tick.ledger", -1)
	runLedger(cells, e.nproc, tr, root, rep)
	tr.close(root)
	return rep, finishTrace(e, tr, rep)
}

// finishTrace writes the traced run's spans out and notes where.
func finishTrace(e env, tr *tracer, rep *report) error {
	path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.json", rep.workload, e.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("spans: %d written to %s", len(tr.spans), path)
	return nil
}
