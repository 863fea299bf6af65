package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adassure/internal/jobs"
	"adassure/internal/obs"
)

// testFleet is a coordinator plus its in-process worker fleet.
type testFleet struct {
	coord   *Server
	client  *Client
	fleet   *Fleet
	reg     *obs.Registry // coordinator-side registry
	workers []*Server
	servers []*httptest.Server
}

// newTestFleet starts n standalone workers and one coordinator routing
// over them. The health checker runs on a long interval so tests control
// health transitions through traffic, not timing.
func newTestFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	tf := &testFleet{reg: obs.NewRegistry()}
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		w := New(Config{Workers: 1})
		hs := httptest.NewServer(w.Handler())
		tf.workers = append(tf.workers, w)
		tf.servers = append(tf.servers, hs)
		peers[i] = hs.URL
	}
	fleet, err := NewFleet(FleetConfig{
		Peers:          peers,
		HealthInterval: time.Hour, // probes driven by traffic only
		Obs:            tf.reg,
	})
	if err != nil {
		t.Fatalf("new fleet: %v", err)
	}
	tf.fleet = fleet
	tf.coord = New(Config{Obs: tf.reg, Fleet: fleet})
	hs := httptest.NewServer(tf.coord.Handler())
	tf.servers = append(tf.servers, hs)
	tf.client = NewClient(hs.URL)

	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := tf.coord.Close(ctx); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
		for _, w := range tf.workers {
			_ = w.Close(ctx)
		}
		for _, hs := range tf.servers {
			hs.Close()
		}
	})
	return tf
}

// simRunsTotal sums sim.runs across all workers.
func (tf *testFleet) simRunsTotal() int64 {
	var total int64
	for _, w := range tf.workers {
		total += w.Registry().Counter("sim.runs").Value()
	}
	return total
}

// TestCoordinatorForwardsAndCachesOnWorker: a request through the
// coordinator executes on exactly one worker — the key's ring owner —
// and never on the coordinator itself; repeating it is a cache hit on
// that same worker with byte-identical content.
func TestCoordinatorForwardsAndCachesOnWorker(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			tf := newTestFleet(t, 3)
			info := postOK(t, tf.client, ep.route, ep.small)
			if info.Cache != "miss" {
				t.Fatalf("first forwarded run disposition %q, want miss", info.Cache)
			}
			info2 := postOK(t, tf.client, ep.route, ep.small)
			if info2.Cache != "hit" {
				t.Fatalf("second forwarded run disposition %q, want hit (same owner)", info2.Cache)
			}
			if !bytes.Equal(info.Body, info2.Body) {
				t.Fatal("forwarded bodies differ between miss and hit")
			}
			runs := ep.check(t, info.Body)
			if got := tf.simRunsTotal(); got != runs {
				t.Fatalf("fleet-wide sim.runs = %d, want %d", got, runs)
			}
			owner := tf.fleet.Ring().Owner(ep.key(t, ep.small)).Name
			for i, w := range tf.workers {
				if workerName(tf.servers[i].URL) == owner && simRuns(w) != runs {
					t.Fatalf("ring owner %s ran %d simulations, want %d", owner, simRuns(w), runs)
				}
			}
			if got := tf.reg.Counter("sim.runs").Value(); got != 0 {
				t.Fatalf("coordinator sim.runs = %d, want 0 (it must forward, not execute)", got)
			}
		})
	}
}

// TestCoordinatorSpreadsKeysAcrossWorkers: distinct keys land on more
// than one worker (the consistent-hash ring is actually routing, not
// funnelling everything to one backend).
func TestCoordinatorSpreadsKeysAcrossWorkers(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	for i := 0; i < 9; i++ {
		req := Request{Duration: 10, Seed: int64(i + 1)}
		if _, _, err := tf.client.Run(ctx, req); err != nil {
			t.Fatalf("run seed %d: %v", i+1, err)
		}
	}
	busy := 0
	for _, w := range tf.workers {
		if w.Registry().Counter("sim.runs").Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("9 distinct keys executed on %d worker(s), want routing across >= 2", busy)
	}
	if got := tf.simRunsTotal(); got != 9 {
		t.Fatalf("fleet-wide sim.runs = %d, want 9", got)
	}
}

// TestCoordinatorFailsOverWhenWorkerDies: killing one worker mid-fleet
// leaves every key serveable — its keys spill to the next replica on the
// ring, and the coordinator counts the failover.
func TestCoordinatorFailsOverWhenWorkerDies(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()
	deadName := workerName(tf.servers[0].URL)

	// Find a request the ring routes to worker 0 first, so its death is
	// guaranteed to be on the request's path (key ownership depends on
	// the randomly assigned test ports, so probe for one).
	var doomed Request
	found := false
	for seed := int64(1); seed <= 512 && !found; seed++ {
		req := Request{Duration: 10, Seed: seed}
		canon, err := req.Canonicalize(600)
		if err != nil {
			t.Fatal(err)
		}
		if tf.fleet.Ring().Owner(canon.Key()).Name == deadName {
			doomed, found = req, true
		}
	}
	if !found {
		t.Fatal("no key owned by worker 0 in 512 seeds — ring badly unbalanced")
	}

	// Kill worker 0's listener (the service stays up; the transport dies,
	// which is what a SIGKILL looks like from the coordinator).
	tf.servers[0].CloseClientConnections()
	tf.servers[0].Close()

	_, info, err := tf.client.Run(ctx, doomed)
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if info.Status != 200 {
		t.Fatalf("status %d after failover", info.Status)
	}
	if tf.workers[0].Registry().Counter("sim.runs").Value() != 0 {
		t.Fatal("dead worker executed something")
	}
	if got := tf.simRunsTotal(); got != 1 {
		t.Fatalf("fleet-wide sim.runs = %d, want 1", got)
	}
	if tf.reg.Counter("coord.failovers").Value() == 0 {
		t.Fatal("no failover counted after the key's owner died")
	}

	// The transport failure marked the worker down passively: later
	// requests route around it without another failover attempt.
	before := tf.reg.Counter("coord.failovers").Value()
	if _, _, err := tf.client.Run(ctx, doomed); err != nil {
		t.Fatalf("second run after failover: %v", err)
	}
	if got := tf.reg.Counter("coord.failovers").Value(); got != before {
		t.Fatalf("failovers grew %d → %d on a down-marked worker", before, got)
	}
}

// TestCoordinatorJobsForwardOverRing: the async job API works in
// coordinator mode — the job result reports the executing worker and is
// byte-identical to a direct worker answer.
func TestCoordinatorJobsForwardOverRing(t *testing.T) {
	tf := newTestFleet(t, 2)
	ctx := context.Background()

	snap, err := tf.client.SubmitJob(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := tf.client.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}
	if final.Worker == "" {
		t.Fatal("fleet job snapshot names no worker")
	}
	_, info, err := tf.client.JobResult(ctx, snap.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	// The owning worker serves the same bytes directly, now as a hit.
	var owner *Client
	for i, hs := range tf.servers[:len(tf.workers)] {
		if workerName(hs.URL) == final.Worker {
			owner = NewClient(tf.servers[i].URL)
		}
	}
	if owner == nil {
		t.Fatalf("job worker %q not among the fleet", final.Worker)
	}
	_, direct, err := owner.Run(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("direct worker run: %v", err)
	}
	if direct.Cache != "hit" {
		t.Fatalf("owner disposition %q, want hit", direct.Cache)
	}
	if !bytes.Equal(info.Body, direct.Body) {
		t.Fatal("job result differs from the owning worker's bytes")
	}
	if got := tf.simRunsTotal(); got != 1 {
		t.Fatalf("fleet-wide sim.runs = %d, want 1", got)
	}
}

// TestCoordinatorReadyzReportsMembership: the coordinator's readiness
// body carries the ring membership with health bits.
func TestCoordinatorReadyzReportsMembership(t *testing.T) {
	tf := newTestFleet(t, 2)
	body, err := tf.client.getJSON(context.Background(), "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	for _, hs := range tf.servers[:2] {
		if !bytes.Contains(body, []byte(workerName(hs.URL))) {
			t.Fatalf("readyz body missing worker %s: %s", workerName(hs.URL), body)
		}
	}
	if !bytes.Contains(body, []byte("workers_healthy")) {
		t.Fatalf("readyz body missing workers_healthy: %s", body)
	}
}

// TestCoordinatorRejectsOversizedReply: a worker reply one byte over the
// relay limit is a forward failure — 502 with the error envelope, never a
// truncated 200 — and a job fed by it never lands done.
func TestCoordinatorRejectsOversizedReply(t *testing.T) {
	big := bytes.Repeat([]byte("x"), maxReplyBytes+1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"status": "ready"}`))
			return
		}
		w.Write(big)
	}))
	defer worker.Close()
	fleet, err := NewFleet(FleetConfig{Peers: []string{worker.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatalf("new fleet: %v", err)
	}
	c, _ := clientFor(t, New(Config{Fleet: fleet}))

	info, _ := post(t, c, "/v1/run", `{}`)
	if info.Status != http.StatusBadGateway {
		t.Fatalf("oversized reply relayed with status %d (%d bytes), want 502", info.Status, len(info.Body))
	}
	errorEnvelope(t, info.Body)

	ctx := context.Background()
	snap, err := c.SubmitJob(ctx, Request{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State == jobs.StateDone {
		t.Fatal("job stored an oversized reply as done")
	}
}
