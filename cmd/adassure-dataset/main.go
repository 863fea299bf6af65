// Command adassure-dataset generates a labelled violation-signature corpus
// as CSV: it runs every attack class (plus clean runs) across seeds and
// emits one feature row per run — per-assertion episode counts, longest
// episode durations and first-detection latencies — for external analysis
// or ML experimentation on top of the ADAssure evidence.
//
// Usage:
//
//	adassure-dataset -seeds 5 [-workers N] > corpus.csv
//
// The (class × seed) grid fans across -workers goroutines (default
// GOMAXPROCS) on the internal/runner pool. Results are index-ordered and
// every run is deterministic in its seed, so the CSV on stdout is
// byte-identical for any worker count, including 1.
//
// Observability: -metrics out.json writes a JSON metrics snapshot of the
// whole campaign (sim step histogram, per-assertion monitoring cost,
// runner job stats), -pprof addr serves net/http/pprof plus the live
// snapshot under expvar while the campaign runs, -events out.json records
// the structured event timeline across all runs (tracks scoped
// "<class>/s<seed>/", plus one lane per pool worker), -perfetto out.json
// exports that timeline as Chrome trace-event JSON (open in
// ui.perfetto.dev) and -flight N bounds the recorder to the newest N
// events. Any output path "-" writes to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"adassure/cmd/internal/cliobs"
	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/coverage"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/track"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adassure-dataset:", err)
		os.Exit(1)
	}
}

// datasetJob is one (class × seed) cell of the campaign grid.
type datasetJob struct {
	class attacks.Class
	seed  int64
}

// run generates the corpus onto stdout; it is main minus process exit so
// tests can compare the CSV bytes across worker counts.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adassure-dataset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds       = fs.Int("seeds", 5, "seeds per class")
		controller  = fs.String("controller", "pure-pursuit", "lateral controller")
		duration    = fs.Float64("duration", 70, "run duration (s)")
		onset       = fs.Float64("onset", 20, "attack onset (s)")
		end         = fs.Float64("end", 50, "attack end (s)")
		workers     = fs.Int("workers", 0, "parallel simulation workers (default GOMAXPROCS; 1 = sequential)")
		metricsPath = fs.String("metrics", "", "write a JSON metrics snapshot of the campaign to this file")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and live metrics on this address while running")
		eventsPath  = fs.String("events", "", "write the structured event timeline as JSON to this file")
		perfPath    = fs.String("perfetto", "", "write the event timeline as Chrome trace-event JSON (open in ui.perfetto.dev)")
		flightCap   = fs.Int("flight", 0, "flight-recorder mode: keep only the newest N events (0 = unbounded)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	reg := cliobs.Registry("adassure-dataset", *metricsPath, *pprofAddr, stderr)
	rec := cliobs.Recorder(*flightCap, *eventsPath, *perfPath)

	tr, err := track.UrbanLoop(6)
	if err != nil {
		return err
	}
	var jobs []datasetJob
	for _, class := range append([]attacks.Class{attacks.ClassNone}, attacks.StandardClasses()...) {
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			jobs = append(jobs, datasetJob{class: class, seed: seed})
		}
	}

	runs, err := runner.Map(runner.Options{
		Workers: *workers,
		Obs:     reg,
		Events:  rec,
	}, jobs, func(_ context.Context, _ int, job datasetJob) (coverage.Run, error) {
		camp, err := attacks.Standard(job.class, attacks.Window{Start: *onset, End: *end}, job.seed)
		if err != nil {
			return coverage.Run{}, err
		}
		mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
		if _, err := sim.Run(sim.Config{
			Track: tr, Controller: *controller, Seed: job.seed, Duration: *duration,
			Campaign: camp, Monitor: mon, DisableTrace: true, Obs: reg,
			Events: rec.Scope(fmt.Sprintf("%s/s%d/", job.class, job.seed)),
		}); err != nil {
			return coverage.Run{}, err
		}
		o := *onset
		if job.class == attacks.ClassNone {
			o = -1
		}
		return coverage.Run{Label: string(job.class), Onset: o, Violations: mon.Violations()}, nil
	})
	if err != nil {
		return err
	}
	// Progress lines go out after collection, in grid order, so stderr is
	// as deterministic as the CSV regardless of worker interleaving.
	for i, r := range runs {
		fmt.Fprintf(stderr, "ran %s seed %d (%d violations)\n", jobs[i].class, jobs[i].seed, len(r.Violations))
	}

	ids := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true}).AssertionIDs()
	if err := coverage.WriteDatasetCSV(stdout, runs, ids); err != nil {
		return err
	}
	files := cliobs.Files{Stdout: stdout, Confirm: stderr}
	if err := files.Write(*metricsPath, "metrics", reg.WriteJSON); err != nil {
		return err
	}
	return files.Events(rec, *eventsPath, *perfPath)
}
