package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/forensics"
	"adassure/internal/obs"
	"adassure/internal/scenario"
	"adassure/internal/telemetry"
)

// Request is one scenario-execution request. The zero value of every
// field means "the scenario default", so `{}` is a valid request (a clean
// urban-loop run). Runs are fully deterministic in the canonicalized
// request, which is what makes the result cache sound.
type Request struct {
	// Track is the route name (default "urban-loop").
	Track string `json:"track,omitempty"`
	// Controller is the lateral controller (default "pure-pursuit").
	Controller string `json:"controller,omitempty"`
	// Attack is the injected attack class, or "none" (the default).
	Attack string `json:"attack,omitempty"`
	// AttackStart/AttackEnd bound the attack window in simulated seconds
	// (defaults 20/50; ignored and canonicalized to 0 when Attack is none).
	AttackStart float64 `json:"attack_start,omitempty"`
	AttackEnd   float64 `json:"attack_end,omitempty"`
	// Seed drives all stochastic components (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration is the simulated time in seconds (default 70, capped by the
	// server's MaxDuration).
	Duration float64 `json:"duration,omitempty"`
	// SpeedLimit of the route in m/s (default 6).
	SpeedLimit float64 `json:"speed_limit,omitempty"`
	// Guarded enables the defended stack.
	Guarded bool `json:"guarded,omitempty"`
	// ThresholdScale loosens (>1) or tightens (<1) catalog thresholds
	// (default 1).
	ThresholdScale float64 `json:"threshold_scale,omitempty"`
	// Localizer selects the fusion stack: "ekf" (default) or
	// "complementary".
	Localizer string `json:"localizer,omitempty"`
	// Assertions, when non-empty, restricts the monitor to these catalog
	// assertion IDs (canonicalized to sorted unique order).
	Assertions []string `json:"assertions,omitempty"`
	// Bundles requests one forensic bundle per violation episode in the
	// response.
	Bundles bool `json:"bundles,omitempty"`
	// BundleHalfWindow is the bundle evidence half-window in seconds
	// (default 2 when Bundles is set; canonicalized to 0 otherwise).
	BundleHalfWindow float64 `json:"bundle_half_window,omitempty"`
}

// validNames are the accepted enum values, kept in one place so the
// /v1/catalog endpoint and validation can never drift apart.
var (
	validTracks = []string{
		"straight", "circle", "s-curve", "figure-eight",
		"double-lane-change", "urban-loop", "hairpin",
	}
	validControllers = []string{"pure-pursuit", "stanley", "pid-lateral", "lqr-mpc"}
	validLocalizers  = []string{"ekf", "complementary"}

	assertionIDsOnce sync.Once
	assertionIDs     []string
)

// validAssertions enumerates the catalog assertion IDs a request may
// select (the full catalog including the ground-truth assertion, which
// the simulator always has available).
func validAssertions() []string {
	assertionIDsOnce.Do(func() {
		assertionIDs = core.NewCatalogMonitor(core.CatalogConfig{
			IncludeGroundTruth: true,
		}).AssertionIDs()
	})
	return assertionIDs
}

func validAttacks() []string {
	out := []string{"none"}
	for _, c := range attacks.StandardClasses() {
		out = append(out, string(c))
	}
	return out
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Canonicalize validates the request and fills every defaultable field
// with its explicit value, so equivalent requests collapse onto one cache
// key. maxDuration caps the simulated seconds a single request may ask
// for (<= 0 means no cap). The receiver is not mutated.
func (r Request) Canonicalize(maxDuration float64) (Request, error) {
	if r.Track == "" {
		r.Track = "urban-loop"
	}
	if r.Controller == "" {
		r.Controller = "pure-pursuit"
	}
	if r.Attack == "" {
		r.Attack = "none"
	}
	if r.Localizer == "" {
		r.Localizer = "ekf"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Duration == 0 {
		r.Duration = 70
	}
	if r.SpeedLimit == 0 {
		r.SpeedLimit = 6
	}
	if r.ThresholdScale == 0 {
		r.ThresholdScale = 1
	}
	if r.Attack == "none" {
		// The window is meaningless without an attack: zero it so clean
		// runs with decorative windows share one cache entry.
		r.AttackStart, r.AttackEnd = 0, 0
	} else {
		if r.AttackStart == 0 {
			r.AttackStart = 20
		}
		if r.AttackEnd == 0 {
			r.AttackEnd = 50
		}
	}
	if !r.Bundles {
		r.BundleHalfWindow = 0
	} else if r.BundleHalfWindow == 0 {
		r.BundleHalfWindow = forensics.DefaultHalfWindow
	}
	if len(r.Assertions) > 0 {
		ids := append([]string(nil), r.Assertions...)
		sort.Strings(ids)
		uniq := ids[:0]
		for i, id := range ids {
			if i == 0 || id != ids[i-1] {
				uniq = append(uniq, id)
			}
		}
		r.Assertions = uniq
	} else {
		r.Assertions = nil
	}

	switch {
	case !contains(validTracks, r.Track):
		return r, fmt.Errorf("unknown track %q (have %v)", r.Track, validTracks)
	case !contains(validControllers, r.Controller):
		return r, fmt.Errorf("unknown controller %q (have %v)", r.Controller, validControllers)
	case !contains(validAttacks(), r.Attack):
		return r, fmt.Errorf("unknown attack %q (have %v)", r.Attack, validAttacks())
	case !contains(validLocalizers, r.Localizer):
		return r, fmt.Errorf("unknown localizer %q (have %v)", r.Localizer, validLocalizers)
	case !finite(r.Duration) || r.Duration <= 0:
		return r, fmt.Errorf("duration must be a positive finite number of seconds, got %v", r.Duration)
	case maxDuration > 0 && r.Duration > maxDuration:
		return r, fmt.Errorf("duration %g s exceeds the server cap of %g s", r.Duration, maxDuration)
	case !finite(r.SpeedLimit) || r.SpeedLimit <= 0:
		return r, fmt.Errorf("speed_limit must be positive and finite, got %v", r.SpeedLimit)
	case !finite(r.ThresholdScale) || r.ThresholdScale <= 0:
		return r, fmt.Errorf("threshold_scale must be positive and finite, got %v", r.ThresholdScale)
	case !finite(r.AttackStart) || !finite(r.AttackEnd) || r.AttackStart < 0:
		return r, fmt.Errorf("attack window [%v, %v] must be finite and non-negative", r.AttackStart, r.AttackEnd)
	case r.Attack != "none" && r.AttackEnd <= r.AttackStart:
		return r, fmt.Errorf("attack window end %g must exceed start %g", r.AttackEnd, r.AttackStart)
	case !finite(r.BundleHalfWindow) || r.BundleHalfWindow < 0:
		return r, fmt.Errorf("bundle_half_window must be non-negative and finite, got %v", r.BundleHalfWindow)
	}
	for _, id := range r.Assertions {
		if !contains(validAssertions(), id) {
			return r, fmt.Errorf("unknown catalog assertion %q (have %v)", id, validAssertions())
		}
	}
	return r, nil
}

// Key returns the content address of a canonicalized request: the SHA-256
// of its canonical JSON encoding. Two requests with the same key ask for
// byte-identical work.
func (r Request) Key() string { return contentKey("", r) }

// semanticsEpoch versions every content key. Bump it by hand whenever a
// change alters what some request's response says (a simulator,
// controller or catalog change that moves a result), so that a cache or
// a persistent store written by an older build misses instead of serving
// the old bytes.
//
// Epoch 1: controllers steer against the route follower's windowed
// reference instead of their own global projection.
const semanticsEpoch = 1

// contentKey is the content address shared by every keyed request kind:
// the hex SHA-256 of the semantics epoch, the namespace and the canonical
// JSON encoding. Struct field order is fixed and map-free, so
// encoding/json is a canonical encoder here; the namespace keeps kinds
// from colliding in the shared cache, store and ring.
func contentKey(namespace string, canon any) string {
	b, err := json.Marshal(canon)
	if err != nil {
		// Canonical requests hold only finite floats, strings, bools and
		// ints; Marshal cannot fail on them.
		panic(fmt.Sprintf("service: marshal canonical request: %v", err))
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "epoch %d\n%s%s", semanticsEpoch, namespace, b))
	return hex.EncodeToString(sum[:])
}

// Scenario converts a canonicalized request into the scenario it
// executes.
func (r Request) Scenario() scenario.Scenario {
	return scenario.Scenario{
		Track:          scenario.TrackName(r.Track),
		Controller:     scenario.ControllerName(r.Controller),
		Attack:         scenario.AttackName(r.Attack),
		AttackStart:    r.AttackStart,
		AttackEnd:      r.AttackEnd,
		Seed:           r.Seed,
		Duration:       r.Duration,
		SpeedLimit:     r.SpeedLimit,
		Guarded:        r.Guarded,
		ThresholdScale: r.ThresholdScale,
		Localizer:      r.Localizer,
		Assertions:     r.Assertions,
		RecordFrames:   r.Bundles,
	}
}

func (Request) route() string { return "/v1/run" }

// run simulates the scenario; its body is the evidence-chain Response.
func (r Request) run(ctx context.Context, reg *obs.Registry, ex *telemetry.Span) (encoder, error) {
	scn := r.Scenario()
	scn.Obs = reg // aggregate sim/monitor metrics across all runs
	scn.Span = ex // phase spans (sim+monitor, diagnosis) hang off this
	out, err := scn.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("run scenario: %w", err)
	}
	if ex.Enabled() {
		ex.SetInt("violations", int64(len(out.Violations)))
		ex.SetInt("steps", int64(out.Sim.Steps))
	}
	return func(traceID string) ([]byte, error) {
		body, err := buildResponse(r, out, traceID)
		if err != nil {
			return nil, fmt.Errorf("encode response: %w", err)
		}
		return body, nil
	}, nil
}
