package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"adassure/internal/obs"
	"adassure/internal/shard"
	"adassure/internal/telemetry"
)

// WorkerHeader names the fleet worker that produced a response body.
const WorkerHeader = "X-Adassure-Worker"

// FleetConfig tunes a coordinator's view of its workers.
type FleetConfig struct {
	// Peers are the worker base URLs, e.g. "http://10.0.0.7:8080". The
	// ring identity of each worker is its URL with the scheme stripped, so
	// every coordinator given the same peer set routes identically.
	Peers []string
	// Replicas and LoadFactor tune the consistent-hash ring (zero values =
	// ring defaults: 128 virtual nodes, load factor 1.25).
	Replicas   int
	LoadFactor float64
	// HealthInterval is the /readyz probe cadence (default 1s).
	HealthInterval time.Duration
	// RequestTimeout bounds one forwarded request (default 90s — above the
	// worker's own simulation budget so the worker answers first).
	RequestTimeout time.Duration
	// Obs receives coord.forwarded{worker}, coord.failovers and
	// coord.no_worker counters plus the shard health metrics. Nil-safe.
	Obs *obs.Registry
	// Logger receives worker health transitions and forward failures.
	Logger *slog.Logger
}

// Fleet is the coordinator's routing fabric: the consistent-hash ring
// over the worker set, an active health checker, and the forwarding
// client. It plugs into Server via Config.Fleet, replacing local
// execution: runKeyed forwards each keyed request to the key's preferred
// worker and fails over down the preference order.
type Fleet struct {
	ring    *shard.Ring
	checker *shard.Checker
	client  *http.Client
	reg     *obs.Registry
	log     *slog.Logger

	failovers *obs.Counter
	noWorker  *obs.Counter
}

// workerName derives the stable ring identity of a peer URL.
func workerName(peer string) string {
	name := peer
	if i := strings.Index(name, "://"); i >= 0 {
		name = name[i+3:]
	}
	return strings.TrimRight(name, "/")
}

// NewFleet builds the ring from the peer set and starts health probing.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("fleet: no peers configured")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 90 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Fleet{
		ring:      shard.NewRing(shard.Options{Replicas: cfg.Replicas, LoadFactor: cfg.LoadFactor}),
		client:    &http.Client{Timeout: cfg.RequestTimeout},
		reg:       cfg.Obs,
		log:       cfg.Logger,
		failovers: cfg.Obs.Counter("coord.failovers"),
		noWorker:  cfg.Obs.Counter("coord.no_worker"),
	}
	for _, peer := range cfg.Peers {
		peer = strings.TrimRight(peer, "/")
		f.ring.Add(workerName(peer), peer)
	}
	f.checker = shard.NewChecker(f.ring, shard.CheckerOptions{
		Interval: cfg.HealthInterval,
		Obs:      cfg.Obs,
		Logger:   cfg.Logger,
	})
	f.checker.Start()
	return f, nil
}

// Close stops health probing.
func (f *Fleet) Close() { f.checker.Stop() }

// Ring exposes the routing table (readyz membership, tests).
func (f *Fleet) Ring() *shard.Ring { return f.ring }

// workerView is one ring member in the /readyz body.
type workerView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
}

// membership summarises the ring for /readyz: every member with health
// and load, sorted by name so the body is stable.
func (f *Fleet) membership() (views []workerView, healthy int) {
	nodes := f.ring.Nodes()
	views = make([]workerView, 0, len(nodes))
	for _, n := range nodes {
		ok := n.Healthy()
		if ok {
			healthy++
		}
		views = append(views, workerView{Name: n.Name, URL: n.URL, Healthy: ok, Inflight: n.Inflight()})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	return views, healthy
}

// forward routes one keyed request to its preferred worker, failing over
// down the preference order on transport errors and backpressure. The
// returned disposition is the worker's own cache disposition; worker
// names the backend that answered. A fleet-wide failure returns 502 with
// the error envelope (err stays nil — the contract matches runKeyed:
// only ctx expiry is an error).
func (f *Fleet) forward(ctx context.Context, sp *telemetry.Span, canon keyedRequest, key string) (body []byte, status int, disposition, worker string, err error) {
	payload, merr := json.Marshal(canon)
	if merr != nil {
		return errorBody("marshal request: " + merr.Error()), http.StatusInternalServerError, "", "", nil
	}
	order := f.ring.Pick(key, 0)
	if len(order) == 0 {
		f.noWorker.Inc()
		return errorBody("fleet: no workers on the ring"), http.StatusBadGateway, "", "", nil
	}
	var lastErr error
	for i, n := range order {
		if ctx.Err() != nil {
			return nil, 0, "", "", ctx.Err()
		}
		if i > 0 {
			f.failovers.Inc()
		}
		fw := sp.StartChild("forward")
		fw.SetAttr("worker", n.Name)
		body, status, disposition, err := f.forwardOne(ctx, n, canon.route(), payload, sp)
		fw.SetAttr("disposition", disposition)
		fw.End()
		if errors.Is(err, errReplyTooLarge) {
			// The owner answered, but with more than the coordinator relays;
			// every replica would send the same bytes, so fail now without
			// downing a healthy worker or failing over.
			return errorBody(err.Error()), http.StatusBadGateway, "", n.Name, nil
		}
		if err != nil {
			lastErr = err
			// Passive health: a transport failure downs the worker now
			// instead of waiting out the probe threshold; the checker
			// restores it on the next successful probe.
			n.SetHealthy(false)
			f.log.Warn("forward failed",
				slog.String("worker", n.Name), slog.String("error", err.Error()))
			continue
		}
		if status == http.StatusTooManyRequests && i+1 < len(order) {
			// The worker shed the request; spill to the next replica
			// rather than bouncing backpressure to the client while
			// capacity remains elsewhere.
			lastErr = fmt.Errorf("worker %s: queue full", n.Name)
			continue
		}
		f.reg.CounterL("coord.forwarded", "worker", n.Name).Inc()
		return body, status, disposition, n.Name, nil
	}
	f.noWorker.Inc()
	return errorBody(fmt.Sprintf("fleet: no worker available for key %.12s…: %v", key, lastErr)),
		http.StatusBadGateway, "", "", nil
}

// maxReplyBytes bounds one forwarded reply body.
const maxReplyBytes = maxBodyBytes * 16

// errReplyTooLarge marks a worker reply over maxReplyBytes. Relaying a
// truncated prefix would serve (and let a job store) a corrupt 200.
var errReplyTooLarge = fmt.Errorf("reply exceeds %d bytes", maxReplyBytes)

// forwardOne executes one forwarded POST of route against one worker.
func (f *Fleet) forwardOne(ctx context.Context, n *shard.Node, route string, payload []byte, sp *telemetry.Span) (body []byte, status int, disposition string, err error) {
	n.Begin()
	defer n.Done()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, n.URL+route, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tp := sp.TraceParent(); tp != "" {
		// The worker continues the coordinator's trace, so one trace ID
		// follows the request across both processes.
		hreq.Header.Set("traceparent", tp)
	}
	hres, err := f.client.Do(hreq)
	if err != nil {
		return nil, 0, "", err
	}
	defer hres.Body.Close()
	body, err = io.ReadAll(io.LimitReader(hres.Body, maxReplyBytes+1))
	if err != nil {
		return nil, 0, "", err
	}
	if len(body) > maxReplyBytes {
		return nil, 0, "", fmt.Errorf("worker %s: %w", n.Name, errReplyTooLarge)
	}
	return body, hres.StatusCode, hres.Header.Get(CacheHeader), nil
}
