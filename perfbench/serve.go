package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"adassure/internal/attacks"
	"adassure/internal/metrics"
	"adassure/internal/obs"
	"adassure/internal/service"
	"adassure/internal/telemetry"
	"adassure/internal/track"
)

// The serve workload's request vocabulary: the server's track catalog,
// its controllers, and the standard attacks plus none.
var (
	serveTracks = []string{
		"straight", "circle", "s-curve", "figure-eight",
		"double-lane-change", "urban-loop", "hairpin",
	}
	serveControllers = []string{"pure-pursuit", "stanley", "pid-lateral", "lqr-mpc"}
)

func serveAttacks() []string {
	out := []string{"none"}
	for _, c := range attacks.StandardClasses() {
		out = append(out, string(c))
	}
	return out
}

// freshEvery is the mix: request i of a client is a fresh key when
// i%freshEvery == 0 and a repeat of one of its earlier keys otherwise.
const freshEvery = 4

// clientPlan generates one client's request sequence from the workload
// seed. Fresh keys are private to the client (the scenario seed encodes
// the client index), so a fresh key is always a miss and a repeat, whose
// first request this client already completed, is always a hit: the hit
// share is 3/4 by construction.
type clientPlan struct {
	rng      *rand.Rand
	client   int
	nclients int
	base     int64
	attacks  []string
	// combos is a seeded permutation of track × controller that fresh
	// keys cycle through, so every seed runs the same track mix.
	combos []int
	fresh  []service.Request
}

func newClientPlan(seed int64, client, nclients int) *clientPlan {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &clientPlan{
		rng:      rng,
		client:   client,
		nclients: nclients,
		base:     seed * 1_000_000,
		attacks:  serveAttacks(),
		combos:   rng.Perm(len(serveTracks) * len(serveControllers)),
	}
}

// next returns request i (i counts from 0 and advances by one per call),
// whether it is a fresh key, and the index of its key in the plan.
func (p *clientPlan) next(i int) (service.Request, bool, int) {
	if i%freshEvery == 0 {
		p.fresh = append(p.fresh, p.freshRequest(len(p.fresh)))
		return p.fresh[len(p.fresh)-1], true, len(p.fresh) - 1
	}
	k := p.rng.Intn(len(p.fresh))
	return p.fresh[k], false, k
}

// freshRequest takes the next track × controller of the cycle and draws
// an attack and a run length of 26-34 s; attacked runs start the attack
// between 10 and 14 s (replay needs 10 s of captured fixes) and keep it to
// the end, so most of them raise violations.
func (p *clientPlan) freshRequest(j int) service.Request {
	combo := p.combos[j%len(p.combos)]
	r := service.Request{
		Track:      serveTracks[combo/len(serveControllers)],
		Controller: serveControllers[combo%len(serveControllers)],
		Attack:     p.attacks[p.rng.Intn(len(p.attacks))],
		Seed:       p.base + int64(j*p.nclients+p.client) + 1,
		Duration:   float64(26 + p.rng.Intn(9)),
	}
	start := float64(10 + p.rng.Intn(5))
	if r.Attack != "none" {
		r.AttackStart, r.AttackEnd = start, r.Duration
	}
	return r
}

// checkRunReply checks one /v1/run answer: status 200, the cache
// disposition the mix implies (miss or coalesced for a fresh key, hit for
// a repeat) and, for a repeat, a body byte-identical to its key's first.
func checkRunReply(fresh bool, info *service.CallInfo, first []byte) error {
	switch {
	case info.Status != http.StatusOK:
		return fmt.Errorf("status %d: %s", info.Status, bytes.TrimSpace(info.Body))
	case fresh && info.Cache != "miss" && info.Cache != "coalesced":
		return fmt.Errorf("fresh key answered %q, want miss or coalesced", info.Cache)
	case !fresh && info.Cache != "hit":
		return fmt.Errorf("repeat key answered %q, want hit", info.Cache)
	case !fresh && !bytes.Equal(info.Body, first):
		return errors.New("hit body differs from its key's first body")
	}
	return nil
}

// serveRig is a running server plus its clients.
type serveRig struct {
	svc     *service.Server
	httpSrv *http.Server
	clients []*service.Client
	done    chan struct{}
}

// startServe starts an in-process server configured like adassure-server's
// defaults (256-trace tracer, 64 MiB cache, nproc workers, no store; logs
// discarded) on loopback, with nproc clients sharing one keep-alive
// transport.
func startServe(e env, nclients int) (*serveRig, error) {
	svc := service.New(service.Config{
		Workers:    e.nproc,
		CacheBytes: 64 << 20,
		Tracer:     telemetry.New(telemetry.Config{MaxTraces: 256}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, err
	}
	rig := &serveRig{
		svc:     svc,
		httpSrv: &http.Server{Handler: svc.Handler()},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(rig.done)
		rig.httpSrv.Serve(ln)
	}()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nclients}}
	for c := 0; c < nclients; c++ {
		cl := service.NewClient("http://" + ln.Addr().String())
		cl.HTTPClient = hc
		rig.clients = append(rig.clients, cl)
	}
	return rig, nil
}

// warm sends each client one request outside the measured key space.
func (r *serveRig) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for c, cl := range r.clients {
		wg.Add(1)
		go func(c int, cl *service.Client) {
			defer wg.Done()
			_, _, errs[c] = cl.Run(context.Background(), service.Request{Seed: -int64(c + 1), Duration: 10})
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *serveRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.httpSrv.Shutdown(ctx)
	<-r.done
	r.svc.Close(ctx)
	r.clients[0].HTTPClient.CloseIdleConnections()
}

// setupServe sets up setupRepeats times — prepare (when non-nil), then a
// warmed server — stopping all but the last rig, and returns it with every
// set-up time.
func setupServe(e env, nclients int, prepare func() error) (*serveRig, []float64, error) {
	var setups []float64
	var rig *serveRig
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		var err error
		if rig, err = startServe(e, nclients); err != nil {
			return nil, nil, err
		}
		if err := rig.warm(); err != nil {
			rig.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return rig, setups, nil
}

// call is one measured request.
type call struct {
	fresh   bool
	latency time.Duration
	end     time.Duration // from the start of the phase
	traceID string
	req     service.Request
	// body is a fresh key's first body, which its repeats must match.
	body     []byte
	violated bool
}

// serveClients drives every client closed-loop for d, ending each client
// on a whole block of freshEvery requests so the mix is exact. after, when
// non-nil, is called on the client's goroutine after each of its calls.
func serveClients(rig *serveRig, seed int64, d time.Duration, rep *report, mu *sync.Mutex, after func(c int, cl call)) [][]call {
	n := len(rig.clients)
	calls := make([][]call, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			plan := newClientPlan(seed, c, n)
			var firstBody [][]byte
			for i := 0; ; i++ {
				if i%freshEvery == 0 && time.Since(start) >= d {
					return
				}
				req, fresh, k := plan.next(i)
				t0 := time.Now()
				resp, info, err := rig.clients[c].Run(context.Background(), req)
				lat := time.Since(t0)
				violated := resp != nil && len(resp.Violations) > 0
				var body []byte
				tid := ""
				if info != nil {
					var first []byte
					if !fresh {
						first = firstBody[k]
					}
					if cerr := checkRunReply(fresh, info, first); cerr != nil {
						err = cerr
					}
					body, tid = info.Body, info.TraceID
				}
				if fresh {
					firstBody = append(firstBody, body)
				}
				mu.Lock()
				rep.check(err)
				mu.Unlock()
				if !fresh {
					body = nil
				}
				calls[c] = append(calls[c], call{fresh: fresh, latency: lat, end: time.Since(start), traceID: tid, req: req, body: body, violated: violated})
				if after != nil {
					after(c, calls[c][len(calls[c])-1])
				}
			}
		}(c)
	}
	wg.Wait()
	return calls
}

// runServe is the serving workload: nproc closed-loop clients with the
// seeded one-fresh-in-four mix against an in-process server.
func runServe(e env, traced bool) (*report, error) {
	nclients := e.nproc
	rep := newReport("serve", nclients)
	rig, setups, err := setupServe(e, nclients, nil)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	if traced {
		return serveTraced(e, rig, rep)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.samples["setup_s"] = len(setups)

	var mu sync.Mutex
	a0 := allocBytes()
	t0 := time.Now()
	calls := serveClients(rig, e.seed, e.seconds, rep, &mu, nil)
	wall := time.Since(t0)
	alloc := allocBytes() - a0

	var all []timedOp
	var miss, hit []time.Duration
	var attacked, violated int
	for _, cs := range calls {
		for _, c := range cs {
			all = append(all, timedOp{end: c.end, latency: c.latency, weight: 1})
			if c.fresh {
				miss = append(miss, c.latency)
				if c.req.Attack != "none" {
					attacked++
					if c.violated {
						violated++
					}
				}
			} else {
				hit = append(hit, c.latency)
			}
		}
	}
	rate, p50, p90, windows := windowed(all, wall)
	rep.metrics["ops_per_s"] = rate
	rep.metrics["p50_ms"] = p50
	rep.metrics["p90_ms"] = p90
	rep.metrics["alloc_kib_per_op"] = float64(alloc) / 1024 / float64(len(all))
	for _, m := range []string{"ops_per_s", "p50_ms", "p90_ms", "alloc_kib_per_op"} {
		rep.samples[m] = len(all)
	}
	mm, hm := msOf(miss), msOf(hit)
	rep.note("misses %d: p50 %.3f ms, p90 %.3f ms; hits %d: p50 %.3f ms, p90 %.3f ms",
		len(mm), metrics.Percentile(mm, 50), metrics.Percentile(mm, 90), len(hm), metrics.Percentile(hm, 50), metrics.Percentile(hm, 90))
	rep.note("attacked misses raising violations: %d of %d", violated, attacked)
	rep.note("rate and latency are medians over %d windows; whole phase: %.2f req/s", windows, float64(len(all))/wall.Seconds())
	return rep, nil
}

// histDelta is the change in one histogram between two snapshots.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramSummary {
	a, b := after.Histograms[name], before.Histograms[name]
	d := obs.HistogramSummary{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	prev := map[int64]int64{}
	for _, bk := range b.Buckets {
		prev[bk.Le] = bk.Count
	}
	for _, bk := range a.Buckets {
		if c := bk.Count - prev[bk.Le]; c > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{Le: bk.Le, Count: c})
		}
	}
	return d
}

// bucketQuantile interpolates the q-quantile inside the occupied buckets
// (bounds as in obs.DefaultLatencyBuckets, factor-2 steps from 64 ns).
func bucketQuantile(h obs.HistogramSummary, q float64) float64 {
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range h.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			if b.Le < 0 {
				return float64(obs.DefaultLatencyBuckets()[30])
			}
			lo := float64(b.Le) / 2
			if b.Le <= 64 {
				lo = 0
			}
			return lo + (rank-cum)/c*(float64(b.Le)-lo)
		}
		cum += c
	}
	return 0
}

func meanOf(h obs.HistogramSummary) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// serveTraced runs the mix for half the measuring time with the server's
// own traces fetched for every miss, then a hits-only burst, then replays
// the service's public calls and the tick ledger on a sample of the
// run's fresh requests.
func serveTraced(e env, rig *serveRig, rep *report) (*report, error) {
	ctx := context.Background()
	tr := newTracer()
	var mu sync.Mutex

	before, err := rig.clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	// The server's own spans of every miss: each client fetches a miss's
	// trace after its next call, when the request span has surely ended
	// and the trace is still among the store's newest 256.
	var assemble []float64
	pending := make([]string, len(rig.clients))
	fetch := func(c int, id string) {
		body, err := rig.clients[c].Trace(ctx, id)
		var exp telemetry.TraceExport
		if err == nil {
			err = json.Unmarshal(body, &exp)
		}
		if err == nil {
			a, ok := handlerSelfMS(exp, tr)
			if !ok {
				err = fmt.Errorf("trace %s has no request span", id)
			}
			mu.Lock()
			assemble = append(assemble, a)
			mu.Unlock()
		}
		if err != nil {
			mu.Lock()
			rep.check(fmt.Errorf("fetch server trace: %w", err))
			mu.Unlock()
		}
	}
	afterCall := func(c int, cl call) {
		if pending[c] != "" {
			fetch(c, pending[c])
			pending[c] = ""
		}
		if cl.fresh {
			pending[c] = cl.traceID
		}
	}
	mix := tr.open("serve.mix", -1)
	calls := serveClients(rig, e.seed, e.seconds/2, rep, &mu, afterCall)
	wall := tr.close(mix)
	for c, id := range pending {
		if id != "" {
			fetch(c, id)
		}
	}
	after, err := rig.clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}

	var fresh, docs []service.Request
	for _, cs := range calls {
		for _, c := range cs {
			docs = append(docs, c.req)
			if c.fresh {
				fresh = append(fresh, c.req)
			}
		}
	}

	hits := after.Counters["service.cache.hits"] - before.Counters["service.cache.hits"]
	misses := after.Counters["service.cache.misses"] - before.Counters["service.cache.misses"]
	ratio := float64(hits) / float64(hits+misses)
	if ratio != 0.75 {
		rep.check(fmt.Errorf("cache hit ratio %.4f, want 0.75 (%d hits, %d misses)", ratio, hits, misses))
	}
	rep.metrics["service.cache_hit_ratio"] = ratio
	rep.samples["service.cache_hit_ratio"] = int(hits + misses)
	runNS := histDelta(before, after, "service.run_ns")
	rep.metrics["service.run_ms"] = meanOf(runNS) / 1e6
	rep.samples["service.run_ms"] = int(runNS.Count)
	wait := histDelta(before, after, "runner.pool.queue_wait_ns")
	rep.metrics["runner.queue_wait_p50_ms"] = bucketQuantile(wait, 0.5) / 1e6
	rep.metrics["runner.queue_wait_p90_ms"] = bucketQuantile(wait, 0.9) / 1e6
	rep.samples["runner.queue_wait_p50_ms"] = int(wait.Count)
	rep.samples["runner.queue_wait_p90_ms"] = int(wait.Count)
	job := histDelta(before, after, "runner.pool.job_ns")
	rep.metrics["runner.busy_share"] = float64(job.Sum) / (float64(wall) * float64(e.nproc))
	rep.samples["runner.busy_share"] = int(job.Count)
	rep.metrics["service.assemble_ms"] = median(assemble)
	rep.samples["service.assemble_ms"] = len(assemble)

	// Hits only: every client re-requests its own keys.
	before = after
	burst := tr.open("serve.hits", -1)
	hitBurst(rig, calls, rep, &mu)
	tr.close(burst)
	if after, err = rig.clients[0].Metrics(ctx); err != nil {
		return nil, err
	}
	reqNS := histDelta(before, after, "service.request_ns")
	rep.metrics["service.hit_request_us"] = meanOf(reqNS) / 1e3
	rep.samples["service.hit_request_us"] = int(reqNS.Count)

	// Replayed public calls.
	replayKeys(tr, docs, rep)
	if err := replayCatalog(tr, rep); err != nil {
		return nil, err
	}
	sample := fresh[:min(len(fresh), ledgerSample)]
	replayScenarios(tr, sample, e.nproc, rep)
	cells, err := cellsOf(sample)
	if err != nil {
		return nil, err
	}
	root := tr.open("tick.ledger", -1)
	runLedger(cells, e.nproc, tr, root, rep)
	tr.close(root)
	return rep, finishTrace(e, tr, rep)
}

// ledgerSample is how many of the run's fresh requests the traced run
// replays through Scenario.Run and the tick ledger.
const ledgerSample = 24

// handlerSelfMS adds one server trace's spans to tr and returns the
// request span's self time: the handler's work outside the cache lookup,
// the queue wait and the execution — request decoding, canonicalization
// and keying, response assembly, cache insert and the write.
func handlerSelfMS(exp telemetry.TraceExport, tr *tracer) (float64, bool) {
	log := tr.log(len(exp.Spans))
	ids := map[string]int{}
	for _, s := range exp.Spans {
		ids[s.SpanID] = len(log.spans)
		log.spans = append(log.spans, span{Name: "server " + s.Name, ID: len(log.spans), Parent: -1,
			Start: s.StartUnixNS - tr.t0.UnixNano(), End: s.EndUnixNS - tr.t0.UnixNano()})
	}
	root := -1
	for i, s := range exp.Spans {
		if p, ok := ids[s.ParentID]; ok {
			log.spans[i].Parent = p
		} else if s.Name == "http /v1/run" {
			root = i
		}
	}
	if root < 0 {
		return 0, false
	}
	var kids []span
	for _, s := range log.spans {
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	self := log.spans[root].End - log.spans[root].Start - covered(log.spans[root], kids)
	tr.merge(log, -1)
	return float64(self) / 1e6, true
}

// hitBurst re-requests every client's fresh keys once, closed loop.
func hitBurst(rig *serveRig, calls [][]call, rep *report, mu *sync.Mutex) {
	var wg sync.WaitGroup
	for c := range rig.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, cl := range calls[c] {
				if !cl.fresh {
					continue
				}
				_, info, err := rig.clients[c].Run(context.Background(), cl.req)
				if info != nil {
					err = checkRunReply(false, info, cl.body)
				}
				mu.Lock()
				rep.check(err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// replayKeys times Request.Canonicalize + Key over every request the mix
// sent.
func replayKeys(tr *tracer, docs []service.Request, rep *report) {
	const rounds = 20
	id := tr.open("service.key", -1)
	for r := 0; r < rounds; r++ {
		for _, d := range docs {
			canon, err := d.Canonicalize(600)
			if err != nil {
				rep.check(err)
				continue
			}
			_ = canon.Key()
		}
	}
	ns := tr.close(id)
	n := rounds * len(docs)
	rep.metrics["service.key_us"] = float64(ns) / float64(n) / 1e3
	rep.samples["service.key_us"] = n
}

// replayCatalog times track.Catalog, which every Scenario.Run rebuilds.
func replayCatalog(tr *tracer, rep *report) error {
	const calls = 20
	id := tr.open("track.catalog", -1)
	for i := 0; i < calls; i++ {
		if _, err := track.Catalog(6); err != nil {
			return err
		}
	}
	ns := tr.close(id)
	rep.metrics["track.catalog_ms"] = float64(ns) / calls / 1e6
	rep.samples["track.catalog_ms"] = calls
	return nil
}

// replayScenarios times Scenario.Run of the sampled requests across
// workers goroutines, as the server's pool runs them.
func replayScenarios(tr *tracer, reqs []service.Request, workers int, rep *report) {
	reg := obs.NewRegistry() // the server attaches its registry to every run
	root := tr.open("adassure.scenario", -1)
	next := make(chan service.Request)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var durs []float64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := tr.log(len(reqs))
			for r := range next {
				canon, err := r.Canonicalize(600)
				if err == nil {
					scn := canon.Scenario()
					scn.Obs = reg
					id := log.open("scenario.run", -1)
					_, err = scn.Run()
					log.close(id)
					mu.Lock()
					durs = append(durs, float64(log.spans[id].End-log.spans[id].Start)/1e6)
					mu.Unlock()
				}
				mu.Lock()
				rep.check(err)
				mu.Unlock()
			}
			tr.merge(log, root)
		}()
	}
	for _, r := range reqs {
		next <- r
	}
	close(next)
	wg.Wait()
	tr.close(root)
	var sum float64
	for _, d := range durs {
		sum += d
	}
	if len(durs) > 0 {
		rep.metrics["adassure.scenario_ms"] = sum / float64(len(durs))
	}
	rep.samples["adassure.scenario_ms"] = len(durs)
}

// cellsOf turns canonical service requests into ledger cells, with a
// registry attached as the service attaches one to every run.
func cellsOf(reqs []service.Request) ([]cell, error) {
	cat, err := track.Catalog(6)
	if err != nil {
		return nil, err
	}
	out := make([]cell, 0, len(reqs))
	for _, r := range reqs {
		canon, err := r.Canonicalize(600)
		if err != nil {
			return nil, err
		}
		out = append(out, cell{
			track:      cat[canon.Track],
			controller: canon.Controller,
			class:      attacks.Class(canon.Attack),
			window:     attacks.Window{Start: canon.AttackStart, End: canon.AttackEnd},
			seed:       canon.Seed,
			duration:   canon.Duration,
			obs:        true,
		})
	}
	return out, nil
}
