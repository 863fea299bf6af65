// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring time, checks the program's outputs and
// prints every metric by name with its unit; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics.
//
// Workloads (all closed loop: every caller waits for its reply):
//
//	grid    the paper-reproduction job: every golden-pinned experiment
//	        through adassure.RunExperiment, each rendering compared
//	        byte-for-byte with its golden file
//	serve   an in-process scenario service on loopback, nproc clients
//	        calling /v1/run with a seeded 1-fresh-in-4 key mix
//	stream  nproc clients replaying seeded recordings through /v1/stream,
//	        violations checked against batch monitoring
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run times each layer from outside through its public functions and
// prints the per-layer set instead (layers a workload does not exercise
// read 0). baseline.json, beside this file, says what each metric means
// on each workload and which end-to-end metric each layer metric moves.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"adassure/internal/metrics"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the end-to-end metric set, reported by every workload with
// --trace 0. An operation is one experiment rendering (grid), one
// /v1/run request (serve) or one ingested frame (stream); latency is per
// experiment, per request and per session respectively.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"alloc_kib_per_op", "KiB"},
}

// perLayer is the per-layer metric set, reported by every workload with
// --trace 1. A layer the workload's measured phase does not run reads 0.
var perLayer = []metricDef{
	{"sim.tick_ns", "ns"},
	{"planner.project_ns", "ns"},
	{"planner.speed_ns", "ns"},
	{"geom.curvature_ns", "ns"},
	{"control.ns", "ns"},
	{"fusion.ns", "ns"},
	{"sensors.ns", "ns"},
	{"vehicle.ns", "ns"},
	{"core.monitor_ns", "ns"},
	{"trace.ns", "ns"},
	{"sim.other_ns", "ns"},
	{"sim.ledger_share", "ratio"},
	{"sim.trace_overhead", "ratio"},
	{"sim.ticks", "count"},
	{"core.violations", "count"},
	{"runner.busy_share", "ratio"},
	{"service.hit_request_us", "us"},
	{"service.key_us", "us"},
	{"service.run_ms", "ms"},
	{"adassure.scenario_ms", "ms"},
	{"service.assemble_ms", "ms"},
	{"track.catalog_ms", "ms"},
	{"runner.queue_wait_p50_ms", "ms"},
	{"runner.queue_wait_p90_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"stream.parse_ns", "ns"},
	{"stream.ingest_ns", "ns"},
	{"service.stream_other_ns", "ns"},
	{"stream.frames_rejected", "count"},
}

// env is what every workload is handed: the seed its inputs are generated
// from, the measuring time, and the process size.
type env struct {
	seed    int64
	seconds time.Duration
	nproc   int
}

// spanDir receives the traced runs' span files, relative to the repository
// root.
const spanDir = ".bench_build/spans"

// report is one workload's outcome.
type report struct {
	workload  string
	clients   int
	attempted int64
	failed    int64
	// firstFailure describes the first failed check, for the log.
	firstFailure string
	metrics      map[string]float64
	// samples records the sample count behind a metric, printed beside it.
	samples map[string]int
	notes   []string
}

func newReport(workload string, clients int) *report {
	return &report{workload: workload, clients: clients, metrics: map[string]float64{}, samples: map[string]int{}}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = err.Error()
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(env, bool) (*report, error){
	"grid":   runGrid,
	"serve":  runServe,
	"stream": runStream,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: grid, serve or stream")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload grid|serve|stream, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		nproc:   runtime.GOMAXPROCS(0),
	}
	rep, err := fn(e, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	out := resultOut{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d nproc=%d clients=%d trace=%d seconds=%d\n",
		rep.workload, e.seed, e.nproc, rep.clients, *traced, *seconds)
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && *traced == 0 {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, d.name)
			return 1
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		if n, ok := rep.samples[d.name]; ok {
			fmt.Fprintf(stdout, "  %-26s %14.6g %-6s (n=%d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(stdout, "  %-26s %14.6g 1      (%d failed of %d attempted)\n", "fail_ratio",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	if rep.firstFailure != "" {
		fmt.Fprintf(stdout, "  first failure: %s\n", rep.firstFailure)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// median is the 50th percentile of xs; xs must not be empty.
func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

// timedOp is one completed operation of a measured phase.
type timedOp struct {
	end     time.Duration // completion time, from the start of the phase
	latency time.Duration
	weight  int // operations it counts for throughput
}

// window is the nominal width of the windows the serve and stream
// workloads split their measured phase into.
const window = 3 * time.Second

// windowed returns the median, over the measured phase's windows, of each
// window's throughput and latency quantiles. The shared host these runs
// execute on slows down in bursts of a few seconds; a median over windows
// keeps a burst that covers a minority of them from moving the result.
func windowed(ops []timedOp, wall time.Duration) (rate, p50, p90 float64, windows int) {
	windows = max(1, int(wall/window))
	width := wall / time.Duration(windows)
	lat := make([][]float64, windows)
	done := make([]int, windows)
	for _, op := range ops {
		w := min(int(op.end/width), windows-1)
		lat[w] = append(lat[w], float64(op.latency)/1e6)
		done[w] += op.weight
	}
	rates := make([]float64, windows)
	var q50, q90 []float64
	for w := range lat {
		rates[w] = float64(done[w]) / width.Seconds()
		if len(lat[w]) > 0 { // a window no operation ended in has no latency
			q50 = append(q50, metrics.Percentile(lat[w], 50))
			q90 = append(q90, metrics.Percentile(lat[w], 90))
		}
	}
	return median(rates), median(q50), median(q90), windows
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
