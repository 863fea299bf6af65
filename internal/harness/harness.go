// Package harness defines and runs the reproduction experiments: every
// table (T1–T6) and figure (F1–F6) in the evaluation, each regenerated as a
// renderable Table from fresh simulation runs. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for expected-vs-measured records.
//
// The scenario grids behind the experiments — every (track × controller ×
// attack × seed) cell — are embarrassingly parallel, so each experiment
// fans its runs across an internal/runner worker pool (Options.Workers,
// default GOMAXPROCS). Results are collected index-ordered, which keeps
// every rendered table byte-identical to the sequential workers=1 path.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/forensics"
	"adassure/internal/obs"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// Table is a rendered experiment result: an identifier, column headers and
// string rows, plus free-form notes (assumptions, units).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Options configures an experiment run.
type Options struct {
	// Seeds is the number of random seeds per configuration (default 3).
	Seeds int
	// Quick shortens run durations for smoke testing and benchmarks.
	Quick bool
	// Controller is the default lateral controller (default "pure-pursuit").
	Controller string
	// Workers is the scenario-execution pool size (default
	// runtime.GOMAXPROCS(0)). Every experiment produces identical output
	// for any value, including 1 — see internal/runner.
	Workers int
	// Progress, when non-nil, receives (done, total) completion counts
	// for each scenario batch an experiment fans out (an experiment may
	// run several batches, so the count restarts per batch).
	Progress func(done, total int)
	// Obs, when non-nil, aggregates runtime metrics across every scenario
	// an experiment runs: runner job stats, sim step histograms and the
	// per-assertion monitoring cost (see internal/obs). Metrics never feed
	// back into rendered tables, so attaching a registry cannot perturb
	// the byte-identical-output guarantee. F4 is the exception: it always
	// measures on its own private registry so its reported numbers are not
	// polluted by (and do not pollute) the shared one.
	Obs *obs.Registry
	// Events, when non-nil, records the structured event timeline of every
	// scenario an experiment fans out (scenario lifecycle, attack windows,
	// violation episodes, guard intervals) plus the runner's per-worker job
	// spans. Tracks are scoped "<class>_<controller>_seed<seed>[_guard]/"
	// so the cells of a grid stay distinct on one shared recorder. Like
	// Obs, attaching a recorder never changes the rendered tables.
	Events *events.Recorder
	// BundleDir, when non-empty, writes one forensic bundle JSON per
	// violation episode of every campaign cell into the directory (created
	// on demand), named <class>_<controller>_seed<seed>[_guard]_<bundle>.
	BundleDir string
}

func (o *Options) defaults() {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.Controller == "" {
		o.Controller = "pure-pursuit"
	}
}

// standard run geometry shared by the experiments.
const (
	attackOnset = 20.0
	attackEnd   = 50.0
)

func (o Options) duration() float64 {
	if o.Quick {
		return 55
	}
	return 70
}

// campaignRun executes one attacked (or clean) run with a fresh catalog
// monitor and returns the result plus monitor.
func campaignRun(o Options, tr *track.Track, class attacks.Class, controller string, seed int64, guard sim.GuardConfig) (*sim.Result, *core.Monitor, error) {
	camp, err := attacks.Standard(class, attacks.Window{Start: attackOnset, End: attackEnd}, seed)
	if err != nil {
		return nil, nil, err
	}
	cellID := fmt.Sprintf("%s_%s_seed%d", class, controller, seed)
	if guard.Enabled {
		cellID += "_guard"
	}
	mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
	res, err := sim.Run(sim.Config{
		Track:        tr,
		Controller:   controller,
		Vehicle:      vehicle.ShuttleParams(),
		Seed:         seed,
		Duration:     o.duration(),
		Campaign:     camp,
		Monitor:      mon,
		Guard:        guard,
		DisableTrace: false,
		Obs:          o.Obs,
		Events:       o.Events.Scope(cellID + "/"),
	})
	if err != nil {
		return nil, nil, err
	}
	if o.BundleDir != "" {
		if err := writeCellBundles(o, tr, camp, cellID, controller, seed, res); err != nil {
			return nil, nil, err
		}
	}
	return res, mon, nil
}

// writeCellBundles emits the forensic bundles of one campaign cell into
// Options.BundleDir. Filenames embed the cell ID plus the bundle's own
// canonical name, so concurrent grid workers never collide and the same
// cell re-run by a later experiment overwrites deterministically.
func writeCellBundles(o Options, tr *track.Track, camp attacks.Campaign, cellID, controller string, seed int64, res *sim.Result) error {
	if len(res.Violations) == 0 {
		return nil
	}
	var attack *forensics.AttackInfo
	if win, ok := camp.ActiveWindow(); ok {
		attack = &forensics.AttackInfo{
			Name: camp.Name(), Class: string(camp.Class()),
			Start: win.Start, End: win.End,
		}
	}
	bundles := forensics.Build(forensics.Input{
		Scenario: map[string]string{
			"track":      tr.Name(),
			"controller": controller,
			"attack":     string(camp.Class()),
			"seed":       fmt.Sprintf("%d", seed),
		},
		Violations: res.Violations,
		Trace:      res.Trace,
		Frames:     res.Frames,
		Attack:     attack,
		Obs:        o.Obs,
	})
	if err := os.MkdirAll(o.BundleDir, 0o755); err != nil {
		return fmt.Errorf("harness: create bundle dir: %w", err)
	}
	for i := range bundles {
		b := &bundles[i]
		path := filepath.Join(o.BundleDir, cellID+"_"+b.Filename())
		f, err := os.Create(path)
		if err == nil {
			err = b.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("harness: write bundle: %w", err)
		}
	}
	return nil
}

// urbanTrack builds the workhorse scenario route.
func urbanTrack() (*track.Track, error) { return track.UrbanLoop(6) }

// grid fans one batch of independent scenario jobs across the worker
// pool and returns the outputs index-ordered, so every consumer can
// aggregate in job order and produce output identical to the sequential
// path. All simulation state (monitors, sensors, RNGs) is constructed
// inside the job; the only values shared across goroutines are immutable
// (the track and the options).
func grid[I, O any](o Options, jobs []I, fn func(I) (O, error)) ([]O, error) {
	return runner.Map(runner.Options{Workers: o.Workers, OnProgress: o.Progress, Obs: o.Obs, Events: o.Events}, jobs,
		func(_ context.Context, _ int, j I) (O, error) { return fn(j) })
}

// campaignJob is one cell of a (class × controller × seed × guard)
// experiment grid, executed by campaignRun.
type campaignJob struct {
	class      attacks.Class
	controller string
	seed       int64
	guard      sim.GuardConfig
}

// campaignOut pairs a run result with its catalog monitor.
type campaignOut struct {
	res *sim.Result
	mon *core.Monitor
}

// campaignGrid fans campaignRun over the job grid.
func campaignGrid(o Options, tr *track.Track, jobs []campaignJob) ([]campaignOut, error) {
	return grid(o, jobs, func(j campaignJob) (campaignOut, error) {
		res, mon, err := campaignRun(o, tr, j.class, j.controller, j.seed, j.guard)
		return campaignOut{res: res, mon: mon}, err
	})
}

// seedJobs builds the per-seed job column for one (class, controller,
// guard) configuration, seeds 1..n.
func seedJobs(class attacks.Class, controller string, n int, guard sim.GuardConfig) []campaignJob {
	jobs := make([]campaignJob, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		jobs = append(jobs, campaignJob{class: class, controller: controller, seed: seed, guard: guard})
	}
	return jobs
}

// Experiment couples an ID with its generator, for the registry consumed by
// the CLI and the benches.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// All returns the experiment registry in report order.
func All() []Experiment {
	return []Experiment{
		{"T1", Table1DetectionMatrix},
		{"T2", Table2DetectionLatency},
		{"T3", Table3DetectionRates},
		{"T4", Table4DiagnosisAccuracy},
		{"T5", Table5ControllerComparison},
		{"T6", Table6DebugLoop},
		{"F1", Figure1CrossTrackSeries},
		{"F2", Figure2Trajectory},
		{"F3", Figure3LatencyCDF},
		{"F4", Figure4MonitorOverhead},
		{"F5", Figure5ThresholdAblation},
		{"F6", Figure6DebounceAblation},
		{"X1", ExtensionX1GuardAblation},
		{"X2", ExtensionX2DriftRateSweep},
		{"X3", ExtensionX3StepMagnitudeSweep},
		{"X4", ExtensionX4AssertionUtility},
		{"X5", ExtensionX5FusionAblation},
		{"M1", ExperimentM1MutationKillMatrix},
		{"S1", ExperimentS1EvasionFrontier},
	}
}

// ByID returns one experiment from the registry.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
