package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"adassure/internal/obs"
	"adassure/internal/store"
)

// restartableServer opens a store in dir and serves with it; closing the
// returned cleanup simulates a process restart (the next open replays
// the same segments).
func serverWithStore(t *testing.T, dir string) (*Server, *Client, func()) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Obs: reg})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{Workers: 1, Store: st, Obs: reg})
	c, stop := clientFor(t, s)
	return s, c, stop
}

// clientFor serves s over httptest and returns a client plus a stopper
// that shuts both down (unlike newTestServer's t.Cleanup, callable
// mid-test to model a restart).
func clientFor(t *testing.T, s *Server) (*Client, func()) {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	t.Cleanup(stop)
	return NewClient(hs.URL), stop
}

// TestStoreTierServesAcrossRestart: evidence computed before a restart
// is served from the persistent store afterwards — byte-identical, with
// the "store" disposition, no re-simulation, and promoted back into the
// LRU so the next request is a plain hit.
func TestStoreTierServesAcrossRestart(t *testing.T) {
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, c1, stop1 := serverWithStore(t, dir)
			info1 := postOK(t, c1, ep.route, ep.small)
			if info1.Cache != "miss" {
				t.Fatalf("first run disposition %q", info1.Cache)
			}
			if got := s1.Registry().Counter("store.puts").Value(); got != 1 {
				t.Fatalf("store.puts = %d, want 1", got)
			}
			stop1() // "restart": the LRU dies with the process, the segments stay

			s2, c2, _ := serverWithStore(t, dir)
			info2 := postOK(t, c2, ep.route, ep.small)
			if info2.Cache != "store" {
				t.Fatalf("post-restart disposition %q, want store", info2.Cache)
			}
			if !bytes.Equal(info1.Body, info2.Body) {
				t.Fatal("store served different bytes than the original run")
			}
			if got := simRuns(s2); got != 0 {
				t.Fatalf("sim.runs after restart = %d, want 0 (store must not re-simulate)", got)
			}
			// The store read promoted the entry into the LRU.
			if info3 := postOK(t, c2, ep.route, ep.small); info3.Cache != "hit" {
				t.Fatalf("post-promotion disposition %q, want hit", info3.Cache)
			}
		})
	}
}

// TestStoreTierMissesOtherEpoch: a result a store holds under the key an
// older build computed (here the pre-epoch formula, the SHA-256 of the
// canonical JSON alone) is never served after the semantics epoch moves:
// the request misses and re-simulates.
func TestStoreTierMissesOtherEpoch(t *testing.T) {
	req := Request{Duration: 10}
	canon, err := req.Canonicalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	oldKey := hex.EncodeToString(sum[:])
	if oldKey == canon.Key() {
		t.Fatal("the semantics epoch does not reach the content key")
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	stale := []byte(`{"schema":"stale result from an older build"}`)
	if err := st.Put(oldKey, stale); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s, c, _ := serverWithStore(t, dir)
	_, info, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if info.Cache != "miss" {
		t.Fatalf("disposition %q, want miss (the stored record is from another epoch)", info.Cache)
	}
	if bytes.Equal(info.Body, stale) {
		t.Fatal("served the other epoch's body")
	}
	if got := simRuns(s); got != 1 {
		t.Fatalf("sim.runs = %d, want 1", got)
	}
}

// TestStoreTierDisabledCacheStillPersists: with the LRU disabled
// (negative cap) the store alone serves repeats without re-simulating —
// the tiers are independent.
func TestStoreTierDisabledCacheStillPersists(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{Workers: 1, CacheBytes: -1, Store: st})
	c, _ := clientFor(t, s)
	ctx := context.Background()

	_, info1, err := c.Run(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if info1.Cache != "miss" {
		t.Fatalf("first disposition %q", info1.Cache)
	}
	_, info2, err := c.Run(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if info2.Cache != "store" {
		t.Fatalf("second disposition %q, want store (LRU is off)", info2.Cache)
	}
	if !bytes.Equal(info1.Body, info2.Body) {
		t.Fatal("store bytes differ from fresh bytes")
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 1 {
		t.Fatalf("sim.runs = %d, want 1", got)
	}
}
