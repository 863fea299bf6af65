package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adassure/internal/mutate"
	"adassure/internal/search"
)

// endpoint is one keyed endpoint's row in the shared suite: every check
// below runs once per row, because all three endpoints share one
// execution path.
type endpoint struct {
	name, route string
	// small is a cheap valid request; check validates its response body
	// and returns the sim.runs one execution of it costs.
	small string
	check func(t *testing.T, body []byte) int64
	// bare and explicit spell one request without and with its defaults.
	bare, explicit string
	// slow outlasts a 30 ms budget (under a 1000 s duration cap).
	slow string
	bad  []badCase
	// key canonicalizes a request document and returns its content key.
	key func(t *testing.T, doc string) string
}

// smallSearch is one channel on one short route with a tiny descent
// budget.
const smallSearch = `{"tracks": ["urban-loop"], "channels": [{"op": "sense-gnss-quantize", "min": 0.05, "max": 2.5}],
	"budget": 4, "duration": 15}`

// badCase is one invalid request document and a substring of its 400
// error message.
type badCase struct{ name, body, want string }

var endpoints = []endpoint{
	{
		name:  "run",
		route: "/v1/run",
		small: `{"attack": "gnss-step-spoof", "duration": 20}`,
		check: func(t *testing.T, body []byte) int64 {
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil || resp.Schema != ResponseSchema || resp.Key == "" {
				t.Fatalf("response is not a run response (%v): %.200s", err, body)
			}
			return 1
		},
		bare: `{"duration": 30}`,
		explicit: `{"track": "urban-loop", "controller": "pure-pursuit", "attack": "none",
			"seed": 1, "duration": 30, "speed_limit": 6, "threshold_scale": 1, "localizer": "ekf",
			"attack_start": 33, "attack_end": 44}`, // the window is decorative without an attack
		slow: `{"duration": 300}`,
		bad: []badCase{
			{"malformed JSON", `{"track": `, "decode request"},
			{"unknown field", `{"trak": "circle"}`, "decode request"},
			{"unknown attack", `{"attack": "gnss-teleport"}`, "unknown attack"},
			{"unknown track", `{"track": "moebius-strip"}`, "unknown track"},
			{"unknown controller", `{"controller": "yolo"}`, "unknown controller"},
			{"negative duration", `{"duration": -3}`, "duration"},
			{"over duration cap", `{"duration": 1e9}`, "exceeds the server cap"},
			{"unknown assertion", `{"assertions": ["A99"]}`, "unknown catalog assertion"},
			{"inverted window", `{"attack": "gnss-step-spoof", "attack_start": 50, "attack_end": 10}`, "must exceed start"},
		},
		key: keyOf[Request],
	},
	{
		name:  "mutate",
		route: "/v1/mutate",
		// 3 mutants + 1 baseline on one short route = 4 simulations.
		small: `{"tracks": ["urban-loop"], "mutants": [{"op": "identity"}, {"op": "ctrl-gain-flip"},
			{"op": "sense-gnss-dropout", "param": 5}], "duration": 20}`,
		check: func(t *testing.T, body []byte) int64 {
			rep, err := mutate.ReadJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("response is not a campaign report: %v", err)
			}
			if sc, ok := rep.Score(mutate.OpGainFlip); !ok || !sc.Killed {
				t.Fatalf("gain-flip not killed in service campaign: %+v", sc)
			}
			if sc, _ := rep.Score(mutate.OpIdentity); sc.Killed {
				t.Fatalf("identity killed in service campaign: %+v", sc)
			}
			return 4
		},
		// The explicit spelling includes the mutant's default parameter.
		bare: `{"tracks": ["urban-loop"], "mutants": [{"op": "ctrl-gain-scale"}], "duration": 10}`,
		explicit: `{"controller": "pure-pursuit", "tracks": ["urban-loop"],
			"mutants": [{"op": "ctrl-gain-scale", "param": 3}], "seed": 1, "duration": 10}`,
		slow: `{"tracks": ["urban-loop"], "duration": 600}`,
		bad: []badCase{
			{"malformed JSON", `{"tracks": [`, "decode request"},
			{"unknown field", `{"mutantz": []}`, "decode request"},
			{"unknown mutant op", `{"mutants": [{"op": "ctrl-teleport"}]}`, "unknown operator"},
			{"bad mutant param", `{"mutants": [{"op": "ctrl-gain-scale", "param": -3}]}`, "outside"},
			{"duplicate mutants", `{"mutants": [{"op": "ctrl-gain-flip"}, {"op": "ctrl-gain-flip"}]}`, "duplicate"},
			{"unknown track", `{"tracks": ["moebius-strip"]}`, "unknown track"},
			{"unknown controller", `{"controller": "yolo"}`, "unknown controller"},
			{"negative duration", `{"duration": -3}`, "duration"},
			{"over duration cap", `{"duration": 1e9}`, "exceeds the server cap"},
			{"oversized grid", `{"tracks": ["urban-loop", "hairpin", "circle", "straight", "s-curve"]}`, "exceeds the cap"},
		},
		key: keyOf[MutateRequest],
	},
	{
		name:  "search",
		route: "/v1/search",
		small: smallSearch,
		check: func(t *testing.T, body []byte) int64 {
			rep, err := search.ReadJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("response is not a frontier report: %v", err)
			}
			if len(rep.Frontier) != 1 {
				t.Fatalf("frontier has %d points, want 1 (one track × one channel): %+v", len(rep.Frontier), rep.Frontier)
			}
			if p := rep.Frontier[0]; p.Evals == 0 || p.Evals > 4 {
				t.Fatalf("frontier point spent %d evals, want within (0, 4]", p.Evals)
			}
			return int64(1 + rep.TotalEvals) // baseline + probes
		},
		bare: smallSearch,
		explicit: `{"controller": "pure-pursuit", "tracks": ["urban-loop"], "mode": "descent",
			"channels": [{"op": "sense-gnss-quantize", "min": 0.05, "max": 2.5}],
			"seed": 1, "budget": 4, "duration": 15}`,
		slow: `{"tracks": ["urban-loop"], "channels": [{"op": "sense-gnss-quantize"}], "budget": 8, "duration": 600}`,
		bad: []badCase{
			{"malformed JSON", `{"channels": [`, "decode request"},
			{"unknown field", `{"channelz": []}`, "decode request"},
			{"unknown channel", `{"channels": [{"op": "ctrl-teleport"}]}`, "unsearchable channel"},
			{"parameterless channel", `{"channels": [{"op": "identity"}]}`, "unsearchable channel"},
			{"inverted range", `{"channels": [{"op": "sense-gnss-quantize", "min": 2, "max": 1}]}`, "inverted magnitude range"},
			{"out-of-range magnitude", `{"channels": [{"op": "sense-gnss-quantize", "min": 1, "max": 5000}]}`, "outside operator bounds"},
			{"inverted window", `{"channels": [{"op": "sense-gnss-latency", "window": {"start": 30, "end": 10}}]}`, "inverted window"},
			{"window on controller", `{"channels": [{"op": "ctrl-frozen-input", "window": {"start": 1, "end": 2}}]}`, "window unsupported"},
			{"duplicate channels", `{"channels": [{"op": "sense-gnss-latency"}, {"op": "sense-gnss-latency"}]}`, "duplicate"},
			{"unknown track", `{"tracks": ["moebius-strip"]}`, "unknown track"},
			{"unknown controller", `{"controller": "yolo"}`, "unknown controller"},
			{"unknown mode", `{"mode": "anneal"}`, "unknown mode"},
			{"negative duration", `{"duration": -3}`, "duration"},
			{"over duration cap", `{"duration": 1e9}`, "exceeds the server cap"},
			{"negative budget", `{"budget": -1}`, "budget"},
			{"over eval cap", `{"budget": 32}`, "exceeds the cap"},
		},
		key: keyOf[SearchRequest],
	},
}

// keyOf canonicalizes a request document of type R and returns its key.
func keyOf[R decodable[R]](t *testing.T, doc string) string {
	t.Helper()
	var req R
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonicalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	return canon.Key()
}

// post sends a request document to route; info is never nil.
func post(t *testing.T, c *Client, route, doc string) (*CallInfo, error) {
	t.Helper()
	info, err := c.post(context.Background(), route, []byte(doc), http.StatusOK)
	if info == nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	return info, err
}

// postOK is post for a request that must answer 200.
func postOK(t *testing.T, c *Client, route, doc string) *CallInfo {
	t.Helper()
	info, err := post(t, c, route, doc)
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	return info
}

func simRuns(s *Server) int64 { return s.Registry().Counter("sim.runs").Value() }

// errorEnvelope decodes the uniform JSON error body and returns its
// message, failing the test when the body is not the envelope.
func errorEnvelope(t *testing.T, body []byte) string {
	t.Helper()
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v (body %q)", err, body)
	}
	if env["error"] == "" {
		t.Fatalf("error envelope has no error message: %q", body)
	}
	return env["error"]
}

// TestContentKeysPinned: content keys change exactly when semanticsEpoch
// is bumped. The keys of the canonical zero requests are pinned together
// with the epoch they were computed under; a key change without a bump
// would orphan every stored result, and a bump without new keys here
// means the epoch is not reaching the key.
func TestContentKeysPinned(t *testing.T) {
	if semanticsEpoch != 1 {
		t.Fatalf("semanticsEpoch = %d: re-pin the keys below for the new epoch", semanticsEpoch)
	}
	want := map[string]string{
		"run":    "c514fd89146ca47e81a83bdc2b3dd90837bc4f6dd9193596f0571b634f445e98",
		"mutate": "d83305c473005706857c371ef8c48f4948e630f69dce7c6f602104e6a2a25610",
		"search": "408603ecbd70792db6067b9ecfe2e12d3c5e944f6bc0995037b2f112e2cddbba",
	}
	for _, ep := range endpoints {
		if got := ep.key(t, `{}`); got != want[ep.name] {
			t.Errorf("%s: key of {} = %s, want %s", ep.name, got, want[ep.name])
		}
	}
}

// TestEndpointMissThenHit: a request runs once and answers "miss"; the
// repeat is a cache hit with byte-identical body and no re-simulation.
func TestEndpointMissThenHit(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 2})
			info := postOK(t, c, ep.route, ep.small)
			if info.Cache != "miss" {
				t.Fatalf("cache disposition %q, want miss", info.Cache)
			}
			runs := ep.check(t, info.Body)
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d, want %d", got, runs)
			}
			info2 := postOK(t, c, ep.route, ep.small)
			if info2.Cache != "hit" {
				t.Fatalf("second call disposition %q, want hit", info2.Cache)
			}
			if !bytes.Equal(info.Body, info2.Body) {
				t.Fatal("cached body differs from fresh body")
			}
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d after cache hit, want %d (cache must not re-run)", got, runs)
			}
		})
	}
}

// TestCanonicalizationSharesCacheEntry: a request spelled with explicit
// defaults hits the cache entry of the bare request.
func TestCanonicalizationSharesCacheEntry(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1})
			postOK(t, c, ep.route, ep.bare)
			runs := simRuns(s)
			if info := postOK(t, c, ep.route, ep.explicit); info.Cache != "hit" {
				t.Fatalf("explicit spelling missed the cache (disposition %q)", info.Cache)
			}
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d, want %d", got, runs)
			}
		})
	}
}

// TestBadRequests: malformed documents and invalid parameters are 400s
// with the JSON error envelope, before any simulation runs.
func TestBadRequests(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1})
			for _, tc := range ep.bad {
				info, _ := post(t, c, ep.route, tc.body)
				if info.Status != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, info.Status, info.Body)
				}
				if msg := errorEnvelope(t, info.Body); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
				}
			}
			if got := simRuns(s); got != 0 {
				t.Fatalf("invalid requests triggered %d simulations", got)
			}
		})
	}
}

// TestSingleflightCoalescing: with the lone worker wedged, K concurrent
// identical requests collapse onto one queued execution; every caller
// receives the same bytes and the work runs exactly once.
func TestSingleflightCoalescing(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
			// Wedge the only worker so the leader's job sits queued while
			// the followers pile onto the flight call.
			release := make(chan struct{})
			if err := s.pool.TrySubmit(context.Background(), func(context.Context) { <-release }, nil); err != nil {
				t.Fatalf("wedge: %v", err)
			}

			const K = 6
			bodies := make([][]byte, K)
			errs := make([]error, K)
			var wg sync.WaitGroup
			for i := 0; i < K; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					info, err := c.post(context.Background(), ep.route, []byte(ep.small), http.StatusOK)
					errs[i] = err
					if info != nil {
						bodies[i] = info.Body
					}
				}(i)
			}
			// Release once every request has joined the flight (leader +
			// K-1 coalesced) — all K are then waiting on one call.
			deadline := time.Now().Add(10 * time.Second)
			for s.coalesced.Value() < K-1 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d followers coalesced", s.coalesced.Value(), K-1)
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			wg.Wait()

			for i := 0; i < K; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("request %d received different bytes", i)
				}
			}
			if got, want := simRuns(s), ep.check(t, bodies[0]); got != want {
				t.Fatalf("sim.runs = %d, want exactly %d for %d coalesced requests", got, want, K)
			}
		})
	}
}

// TestQueueFullReturns429: with the worker wedged and the queue full, a
// distinct request is shed with 429 + Retry-After instead of blocking.
func TestQueueFullReturns429(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
			ctx := context.Background()
			running := make(chan struct{})
			release := make(chan struct{})
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
			}()
			if err := s.pool.TrySubmit(ctx, func(context.Context) { close(running); <-release }, nil); err != nil {
				t.Fatalf("wedge: %v", err)
			}
			// Wait until the worker has dequeued the wedge: the queue slot
			// the poll below observes must belong to the real request, not
			// the wedge — otherwise the distinct request below could be
			// admitted instead of shed and block on the wedged worker.
			<-running
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := c.Run(ctx, Request{Duration: 5}); err != nil {
					t.Errorf("queued request: %v", err)
				}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.pool.QueueLen() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("queued request never reached the admission queue")
				}
				time.Sleep(time.Millisecond)
			}

			// A different request cannot coalesce and must be shed.
			info, err := post(t, c, ep.route, ep.small)
			var qf *QueueFullError
			if !errors.As(err, &qf) || info.Status != http.StatusTooManyRequests {
				t.Fatalf("want QueueFullError, got %v (status %d)", err, info.Status)
			}
			if qf.RetryAfter != 2*time.Second {
				t.Fatalf("Retry-After = %s, want 2s", qf.RetryAfter)
			}
			errorEnvelope(t, info.Body)
			if got := s.Registry().Counter("service.queue_full").Value(); got != 1 {
				t.Fatalf("queue_full counter = %d, want 1", got)
			}
			close(release)
			wg.Wait()
		})
	}
}

// TestPerRequestTimeout: work exceeding the per-request budget is
// cancelled inside the running simulations, answered with 504 and never
// cached.
func TestPerRequestTimeout(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, Timeout: 30 * time.Millisecond, MaxDuration: 1000})
			info, _ := post(t, c, ep.route, ep.slow)
			if info.Status != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504 (body %s)", info.Status, info.Body)
			}
			errorEnvelope(t, info.Body)
			if got := s.Registry().Counter("service.timeouts").Value(); got != 1 {
				t.Fatalf("timeouts counter = %d, want 1", got)
			}
			if s.cache.len() != 0 {
				t.Fatal("timed-out request was cached")
			}
		})
	}
}

// TestUnknownRouteAndMethod: the JSON fallback answers unknown paths with
// a 404 envelope and wrong-method calls on real routes with 405 + Allow,
// instead of the mux's plain-text defaults.
func TestUnknownRouteAndMethod(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	hc := c.httpClient()

	resp, err := hc.Get(c.BaseURL + "/v1/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("unknown route: content type %q, want application/json", ct)
	}
	if msg := errorEnvelope(t, buf.Bytes()); !strings.Contains(msg, "unknown route") {
		t.Fatalf("404 message %q does not name the problem", msg)
	}

	for path, wrong := range map[string]string{
		"/v1/run":     http.MethodGet,
		"/v1/mutate":  http.MethodGet,
		"/v1/search":  http.MethodGet,
		"/v1/catalog": http.MethodPost,
		"/healthz":    http.MethodDelete,
	} {
		req, err := http.NewRequest(wrong, c.BaseURL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", wrong, path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Fatalf("%s %s: 405 without an Allow header", wrong, path)
		}
		errorEnvelope(t, buf.Bytes())
	}
}
