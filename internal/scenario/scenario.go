// Package scenario is the one-call scenario runner: a named
// configuration (track × controller × attack × seed) that builds the
// simulator, attack campaign and catalog monitor, runs the closed loop and
// diagnoses the violation record. The root adassure package re-exports it
// as adassure.Scenario, and the service executes /v1/run requests through
// it, so both surfaces run one code path.
package scenario

import (
	"context"
	"fmt"
	"io"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/events"
	"adassure/internal/forensics"
	"adassure/internal/obs"
	"adassure/internal/offline"
	"adassure/internal/report"
	"adassure/internal/sim"
	"adassure/internal/telemetry"
	"adassure/internal/track"
)

// TrackName selects a built-in test route.
type TrackName string

// Built-in tracks.
const (
	TrackStraight         TrackName = "straight"
	TrackCircle           TrackName = "circle"
	TrackSCurve           TrackName = "s-curve"
	TrackFigureEight      TrackName = "figure-eight"
	TrackDoubleLaneChange TrackName = "double-lane-change"
	TrackUrbanLoop        TrackName = "urban-loop"
	TrackHairpin          TrackName = "hairpin"
)

// ControllerName selects a built-in lateral controller.
type ControllerName string

// Built-in controllers.
const (
	ControllerPurePursuit ControllerName = "pure-pursuit"
	ControllerStanley     ControllerName = "stanley"
	ControllerPIDLateral  ControllerName = "pid-lateral"
	ControllerLQRMPC      ControllerName = "lqr-mpc"
)

// AttackName selects a built-in attack class with canonical parameters.
type AttackName string

// Built-in attacks.
const (
	AttackNone           AttackName = "none"
	AttackStepSpoof      AttackName = "gnss-step-spoof"
	AttackDriftSpoof     AttackName = "gnss-drift-spoof"
	AttackReplay         AttackName = "gnss-replay"
	AttackFreeze         AttackName = "gnss-freeze"
	AttackDelay          AttackName = "gnss-delay"
	AttackDropout        AttackName = "gnss-dropout"
	AttackNoiseInflation AttackName = "gnss-noise-inflation"
	AttackMeander        AttackName = "gnss-meander"
	AttackIMUHeadingBias AttackName = "imu-heading-bias"
	AttackOdomScale      AttackName = "odom-scale"
	AttackStuckSteer     AttackName = "actuator-stuck-steer"
	AttackSteerOffset    AttackName = "actuator-steer-offset"
)

// AttackNames lists the built-in attack classes in stable order.
func AttackNames() []AttackName {
	out := []AttackName{}
	for _, c := range attacks.StandardClasses() {
		out = append(out, AttackName(c))
	}
	return out
}

// Scenario is the high-level entry point: one named configuration that can
// be run with a single call.
type Scenario struct {
	// Track is the route (default TrackUrbanLoop).
	Track TrackName
	// CustomTrack overrides Track with a user-built route (e.g. from
	// TrackFromWaypoints, optionally with zones).
	CustomTrack *track.Track
	// Controller is the lateral controller (default ControllerPurePursuit).
	Controller ControllerName
	// Attack is the injected attack class (default AttackNone).
	Attack AttackName
	// AttackStart/AttackEnd bound the attack window (defaults 20/50 s).
	AttackStart, AttackEnd float64
	// Seed drives all stochastic components (default 1).
	Seed int64
	// Duration is the simulated time in seconds (default 70).
	Duration float64
	// SpeedLimit of the route in m/s (default 6).
	SpeedLimit float64
	// Guarded enables the defended stack (gate + assertion-triggered
	// fallback).
	Guarded bool
	// ThresholdScale loosens (>1) or tightens (<1) the catalog thresholds.
	ThresholdScale float64
	// RecordFrames captures the frame stream into the result's Recording
	// for offline re-monitoring.
	RecordFrames bool
	// Localizer selects the fusion stack: "ekf" (default) or
	// "complementary" (fixed-gain filter without innovation gating).
	Localizer string
	// Obs, when non-nil, collects runtime metrics for the run: control-step
	// count and latency histogram, achieved steps/s, and the per-assertion
	// monitoring cost (eval latency, eval and violation counts). Read the
	// results with Registry.Snapshot or Registry.WriteJSON. Nil (the
	// default) adds no overhead.
	Obs *obs.Registry
	// Events, when non-nil, records the run's structured event timeline:
	// the scenario lifecycle span, the attack activation window, guard
	// fallback intervals, every violation episode and the top diagnosis
	// hypotheses. Render with WriteEventTimeline, export with
	// WritePerfetto, persist with EventRecorder.WriteJSON. Nil (the
	// default) adds no overhead. Scenarios sharing one recorder pass
	// distinct Scope views of it; RunScenarioBatch scopes per index.
	Events *events.Recorder
	// Assertions, when non-empty, restricts the monitor to the named
	// catalog assertion IDs (e.g. "A1", "A3", "A12"); unknown IDs are an
	// error. Empty (the default) loads the full catalog. Used by the
	// serving layer's per-request catalog selection.
	Assertions []string
	// Span, when non-nil, is the parent span the run's phases report
	// under: RunContext opens one child span covering the simulation +
	// monitoring loop and one covering diagnosis. Phase spans are
	// constant-count per run (never per step), and a nil span (the
	// default) is a single-branch no-op.
	Span *telemetry.Span
}

// Result is the outcome of a Scenario run.
type Result struct {
	// Sim is the raw simulation result, including the signal trace.
	Sim *sim.Result
	// Violations is the monitor's episode record.
	Violations []core.Violation
	// Hypotheses is the ranked diagnosis.
	Hypotheses []diagnosis.Hypothesis
	// Recording holds the frame stream when Scenario.RecordFrames was set.
	Recording *offline.Recording

	scenario Scenario
}

// Report renders the combined debugging report.
func (r *Result) Report() string {
	return diagnosis.Report(r.Violations, 3)
}

// WriteMarkdownReport renders the full Markdown debugging report (scenario
// metadata, run summary, detection, timeline, diagnosis, signal summary).
func (r *Result) WriteMarkdownReport(w io.Writer) error {
	onset := -1.0
	if r.scenario.Attack != AttackNone {
		onset = r.scenario.AttackStart
	}
	return report.Write(w, report.Input{
		Title: fmt.Sprintf("ADAssure report — %s on %s (%s, seed %d)",
			r.scenario.Attack, r.scenario.Track, r.scenario.Controller, r.scenario.Seed),
		Scenario: map[string]string{
			"track":      string(r.scenario.Track),
			"controller": string(r.scenario.Controller),
			"attack":     string(r.scenario.Attack),
			"seed":       fmt.Sprintf("%d", r.scenario.Seed),
			"guarded":    fmt.Sprintf("%v", r.scenario.Guarded),
		},
		Result:      r.Sim,
		Violations:  r.Violations,
		AttackOnset: onset,
	})
}

// ForensicBundles builds one self-contained debugging bundle per violation
// episode of the run: a ±halfWindow trace slice around the violation
// (extended back to the episode's first breach), the in-window frames (when
// Scenario.RecordFrames was set), the attack state, the assertion's eval
// history (when Scenario.Obs was set) and the top diagnosis hypotheses.
// halfWindow <= 0 uses the 2 s default. Persist each with
// ForensicBundle.WriteJSON; re-read with ReadForensicBundle.
func (r *Result) ForensicBundles(halfWindow float64) []forensics.Bundle {
	var attack *forensics.AttackInfo
	if r.scenario.Attack != AttackNone {
		attack = &forensics.AttackInfo{
			Name:  string(r.scenario.Attack),
			Class: string(r.scenario.Attack),
			Start: r.scenario.AttackStart,
			End:   r.scenario.AttackEnd,
		}
	}
	return forensics.Build(forensics.Input{
		Scenario: map[string]string{
			"track":      string(r.scenario.Track),
			"controller": string(r.scenario.Controller),
			"attack":     string(r.scenario.Attack),
			"seed":       fmt.Sprintf("%d", r.scenario.Seed),
			"guarded":    fmt.Sprintf("%v", r.scenario.Guarded),
		},
		Violations: r.Violations,
		Trace:      r.Sim.Trace,
		Frames:     r.Sim.Frames,
		Attack:     attack,
		Obs:        r.scenario.Obs,
		Hypotheses: r.Hypotheses,
		HalfWindow: halfWindow,
	})
}

// Detected reports whether any violation was raised at or after t.
func (r *Result) Detected(after float64) bool {
	for _, v := range r.Violations {
		if v.T >= after {
			return true
		}
	}
	return false
}

// Run executes the scenario.
func (s Scenario) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the scenario under ctx: cancelling it (or hitting
// its deadline) aborts the simulation within one control step and returns
// an error wrapping ctx.Err(). nil means context.Background().
func (s Scenario) RunContext(ctx context.Context) (*Result, error) {
	if s.Track == "" {
		s.Track = TrackUrbanLoop
	}
	if s.Controller == "" {
		s.Controller = ControllerPurePursuit
	}
	if s.Attack == "" {
		s.Attack = AttackNone
	}
	if s.AttackStart == 0 {
		s.AttackStart = 20
	}
	if s.AttackEnd == 0 {
		s.AttackEnd = 50
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = 70
	}
	if s.SpeedLimit == 0 {
		s.SpeedLimit = 6
	}

	tr := s.CustomTrack
	if tr == nil {
		cat, err := track.Catalog(s.SpeedLimit)
		if err != nil {
			return nil, err
		}
		var ok bool
		tr, ok = cat[string(s.Track)]
		if !ok {
			return nil, fmt.Errorf("adassure: unknown track %q (have %v)", s.Track, track.Names(cat))
		}
	}

	var camp attacks.Campaign
	if s.Attack != AttackNone {
		var err error
		camp, err = attacks.Standard(attacks.Class(s.Attack), attacks.Window{Start: s.AttackStart, End: s.AttackEnd}, s.Seed)
		if err != nil {
			return nil, err
		}
	}

	mon, err := buildCatalogMonitor(core.CatalogConfig{
		ThresholdScale:     s.ThresholdScale,
		IncludeGroundTruth: true,
	}, s.Assertions)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Context:      ctx,
		Track:        tr,
		Controller:   string(s.Controller),
		Seed:         s.Seed,
		Duration:     s.Duration,
		Campaign:     camp,
		Monitor:      mon,
		RecordFrames: s.RecordFrames,
		Localizer:    s.Localizer,
		Obs:          s.Obs,
		Events:       s.Events,
	}
	if s.Guarded {
		cfg.Guard = sim.GuardConfig{Enabled: true, AssertionTrigger: true}
	}
	simSpan := s.Span.StartChild("phase.sim+monitor")
	res, err := sim.Run(cfg)
	if err != nil {
		simSpan.End()
		return nil, err
	}
	vs := mon.Violations()
	if simSpan.Enabled() {
		simSpan.SetInt("steps", int64(res.Steps))
		simSpan.SetInt("violations", int64(len(vs)))
	}
	simSpan.End()
	diagSpan := s.Span.StartChild("phase.diagnosis")
	hyps := diagnosis.Diagnose(vs)
	if diagSpan.Enabled() {
		diagSpan.SetInt("hypotheses", int64(len(hyps)))
	}
	diagSpan.End()
	out := &Result{
		Sim:        res,
		Violations: vs,
		Hypotheses: hyps,
		scenario:   s,
	}
	if s.Events != nil && len(vs) > 0 {
		diagnosis.RecordHypotheses(s.Events, res.SimTime, out.Hypotheses, 3)
	}
	if s.RecordFrames {
		out.Recording = &offline.Recording{
			Meta: offline.Meta{
				Track:      string(s.Track),
				Controller: string(s.Controller),
				Attack:     string(s.Attack),
				Seed:       s.Seed,
				Duration:   s.Duration,
			},
			Frames: res.Frames,
		}
	}
	return out, nil
}

// buildCatalogMonitor loads the built-in catalog, optionally restricted
// to an explicit assertion-ID subset. IDs are matched against the catalog
// the config produces, so requesting e.g. "A12" without ground truth
// enabled is an error rather than a silent no-op.
func buildCatalogMonitor(cfg core.CatalogConfig, ids []string) (*core.Monitor, error) {
	m, err := core.NewCatalogMonitorWith(cfg, ids)
	if err != nil {
		return nil, fmt.Errorf("adassure: %w", err)
	}
	return m, nil
}

// WriteComparisonReport renders a before/after Markdown comparison of two
// runs of the same scenario — one iteration of the debug loop.
func WriteComparisonReport(w io.Writer, title string, before, after *Result) error {
	if before == nil || after == nil {
		return fmt.Errorf("adassure: comparison needs both results")
	}
	onset := -1.0
	if before.scenario.Attack != AttackNone {
		onset = before.scenario.AttackStart
	}
	return report.WriteCompare(w, report.CompareInput{
		Title:       title,
		BeforeLabel: "before",
		AfterLabel:  "after",
		Before:      before.Sim,
		After:       after.Sim,
		BeforeViol:  before.Violations,
		AfterViol:   after.Violations,
		AttackOnset: onset,
	})
}
