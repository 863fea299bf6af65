package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"adassure"
	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/obs"
	"adassure/internal/offline"
	"adassure/internal/service"
	"adassure/internal/stream"
)

// The stream workload's seeded recording set: one recording per closed
// track × controller, each an 80 s run (1600 frames). Closed tracks never
// end a run early, so sessions are the same length whatever the seed picks
// and stay under the server's per-session frame-rate burst of 2000 frames.
// Every seed streams the same track and controller mix, so the seed moves
// only attacks, windows and noise, not the share of costly tracks.
const recordingDuration = 80

var closedTracks = []adassure.TrackName{adassure.TrackCircle, adassure.TrackFigureEight, adassure.TrackUrbanLoop}

// recording is one seeded scenario's frame stream, its NDJSON encoding
// and the violations batch monitoring finds in it.
type recording struct {
	name   string
	frames []core.Frame
	ndjson []byte
	ref    []core.Violation
}

// catalogConfig is the assertion catalog Scenario.Run and /v1/stream load
// by default: the full catalog with the ground-truth assertion.
var catalogConfig = core.CatalogConfig{IncludeGroundTruth: true}

// makeRecordings simulates the seeded recording set: for each closed
// track × controller, a scenario seed and (on three of each track's four
// controllers, the clean one drawn from the seed) an attack class and
// window drawn from the seed.
func makeRecordings(seed int64) ([]recording, error) {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	classes := attacks.StandardClasses()
	out := make([]recording, 0, len(closedTracks)*len(serveControllers))
	for _, tr := range closedTracks {
		clean := rng.Intn(len(serveControllers))
		for c, ctl := range serveControllers {
			scn := adassure.Scenario{
				Track:        tr,
				Controller:   adassure.ControllerName(ctl),
				Seed:         seed*1000 + int64(len(out)) + 1,
				Duration:     recordingDuration,
				RecordFrames: true,
			}
			class := classes[rng.Intn(len(classes))]
			start := float64(15 + rng.Intn(11))
			if c != clean {
				scn.Attack = adassure.AttackName(class)
				scn.AttackStart, scn.AttackEnd = start, start+20
			}
			res, err := scn.Run()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for k := range res.Recording.Frames {
				if err := enc.Encode(&res.Recording.Frames[k]); err != nil {
					return nil, err
				}
			}
			out = append(out, recording{
				name:   fmt.Sprintf("%s/%s/%s", scn.Track, scn.Controller, scn.Attack),
				frames: res.Recording.Frames,
				ndjson: buf.Bytes(),
				ref:    (&offline.Recording{Frames: res.Recording.Frames}).Monitor(catalogConfig),
			})
		}
	}
	return out, nil
}

// checkSession checks one streamed session against its recording: a
// clean close after every frame, no rejected frame, and exactly the batch
// reference's violations, opened in the same order at the same times.
func checkSession(res *service.StreamResult, rec recording) error {
	if res.Status != 200 || res.Cache != "bypass" {
		return fmt.Errorf("%s: status %d, cache %q", rec.name, res.Status, res.Cache)
	}
	closed, ok := res.Closed()
	switch {
	case !ok || closed.Stats == nil:
		return fmt.Errorf("%s: no session-closed event", rec.name)
	case closed.Reason != stream.ReasonEOF || closed.Code != 0:
		return fmt.Errorf("%s: session closed %q code %d", rec.name, closed.Reason, closed.Code)
	case closed.Stats.Rejected != 0:
		return fmt.Errorf("%s: %d frames rejected", rec.name, closed.Stats.Rejected)
	case closed.Stats.Frames != int64(len(rec.frames)):
		return fmt.Errorf("%s: %d frames ingested, sent %d", rec.name, closed.Stats.Frames, len(rec.frames))
	case closed.Stats.Violations != int64(len(rec.ref)):
		return fmt.Errorf("%s: %d violations, batch reference has %d", rec.name, closed.Stats.Violations, len(rec.ref))
	}
	var opened []string
	for _, e := range res.Events {
		if e.Kind == stream.EventViolationOpened {
			opened = append(opened, fmt.Sprintf("%s@%g", e.Violation.AssertionID, e.Violation.T))
		}
	}
	want := make([]string, len(rec.ref))
	for i, v := range rec.ref {
		want[i] = fmt.Sprintf("%s@%g", v.AssertionID, v.T)
	}
	if !reflect.DeepEqual(opened, want) && !(len(opened) == 0 && len(want) == 0) {
		return fmt.Errorf("%s: opened %v, batch reference %v", rec.name, opened, want)
	}
	return nil
}

// session is one measured stream session.
type session struct {
	rec      int
	start    time.Time
	latency  time.Duration
	rejected int64
}

// streamClients drives every client closed-loop for d; the clients cycle
// through one seeded permutation of the recordings, each from its own
// offset, so every len(recs) sessions of a client send each recording once.
func streamClients(rig *serveRig, recs []recording, seed int64, d time.Duration, rep *report, mu *sync.Mutex) [][]session {
	n := len(rig.clients)
	out := make([][]session, n)
	order := rand.New(rand.NewSource(seed*31 + 7)).Perm(len(recs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c * len(recs) / n; time.Since(start) < d; j++ {
				k := order[j%len(recs)]
				t0 := time.Now()
				res, err := rig.clients[c].Stream(context.Background(), bytes.NewReader(recs[k].ndjson),
					service.StreamOptions{Heartbeat: -1})
				lat := time.Since(t0)
				var rejected int64
				if err == nil {
					err = checkSession(res, recs[k])
					if closed, ok := res.Closed(); ok && closed.Stats != nil {
						rejected = closed.Stats.Rejected
					}
				}
				mu.Lock()
				rep.check(err)
				mu.Unlock()
				out[c] = append(out[c], session{rec: k, start: t0, latency: lat, rejected: rejected})
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runStream is the streaming workload: nproc clients replaying the seeded
// recordings through /v1/stream.
func runStream(e env, traced bool) (*report, error) {
	nclients := e.nproc
	rep := newReport("stream", nclients)
	var recs []recording
	prepare := func() error {
		var err error
		recs, err = makeRecordings(e.seed)
		return err
	}
	rig, setups, err := setupServe(e, nclients, prepare)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	if traced {
		return streamTraced(e, rig, recs, rep)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.samples["setup_s"] = len(setups)

	var mu sync.Mutex
	a0 := allocBytes()
	t0 := time.Now()
	sessions := streamClients(rig, recs, e.seed, e.seconds, rep, &mu)
	wall := time.Since(t0)
	alloc := allocBytes() - a0

	var ops []timedOp
	var frames int
	for _, ss := range sessions {
		for _, s := range ss {
			n := len(recs[s.rec].frames)
			ops = append(ops, timedOp{end: s.start.Add(s.latency).Sub(t0), latency: s.latency, weight: n})
			frames += n
		}
	}
	rate, p50, p90, windows := windowed(ops, wall)
	rep.metrics["ops_per_s"] = rate
	rep.metrics["p50_ms"] = p50
	rep.metrics["p90_ms"] = p90
	rep.metrics["alloc_kib_per_op"] = float64(alloc) / 1024 / float64(frames)
	rep.samples["ops_per_s"] = frames
	rep.samples["alloc_kib_per_op"] = frames
	rep.samples["p50_ms"] = len(ops)
	rep.samples["p90_ms"] = len(ops)
	rep.note("sessions %d over %d recordings, frames %d", len(ops), len(recs), frames)
	rep.note("rate and latency are medians over %d windows; whole phase: %.0f frames/s", windows, float64(frames)/wall.Seconds())
	return rep, nil
}

// streamTraced streams for half the measuring time with one span per
// session, then replays the endpoint's per-frame public calls on every
// recording: stream.ParseFrame, Session.Ingest (which includes the
// monitor step) and Monitor.Step on its own.
func streamTraced(e env, rig *serveRig, recs []recording, rep *report) (*report, error) {
	tr := newTracer()
	var mu sync.Mutex
	root := tr.open("stream.sessions", -1)
	sessions := streamClients(rig, recs, e.seed, e.seconds/2, rep, &mu)
	tr.close(root)
	var sessNS int64
	var sessFrames, nSessions, rejected int
	for _, ss := range sessions {
		log := tr.log(len(ss))
		for _, s := range ss {
			at := int64(s.start.Sub(tr.t0))
			log.add("session", -1, at, at+int64(s.latency))
			rejected += int(s.rejected)
			sessNS += int64(s.latency)
			sessFrames += len(recs[s.rec].frames)
			nSessions++
		}
		tr.merge(log, root)
	}

	const rounds = 5
	reg := obs.NewRegistry() // the endpoint attaches the server's registry
	var frames int
	var parseNS, ingestNS, monNS int64
	var violations int
	for r := 0; r < rounds; r++ {
		for _, rec := range recs {
			lines := bytes.SplitAfter(rec.ndjson, []byte("\n"))
			parsed := make([]core.Frame, 0, len(rec.frames))
			id := tr.open("stream.parse", -1)
			for _, l := range lines {
				if len(l) == 0 {
					continue
				}
				f, err := stream.ParseFrame(l)
				if err != nil {
					rejected++
					continue
				}
				parsed = append(parsed, f)
			}
			parseNS += tr.close(id)

			sess, err := stream.New(stream.Config{Catalog: catalogConfig, Heartbeat: 200, Obs: reg, Sink: func(stream.Event) {}})
			if err != nil {
				return nil, err
			}
			id = tr.open("stream.ingest", -1)
			for _, f := range parsed {
				if err := sess.Ingest(f); err != nil {
					rejected++
				}
			}
			ingestNS += tr.close(id)
			st := sess.Close()

			mon := core.NewCatalogMonitor(catalogConfig).Attach(reg)
			id = tr.open("core.monitor", -1)
			for _, f := range parsed {
				mon.Step(f)
			}
			monNS += tr.close(id)

			err = nil
			if !reflect.DeepEqual(mon.Violations(), rec.ref) || st.Violations != int64(len(rec.ref)) {
				err = fmt.Errorf("%s: replayed monitor disagrees with the batch reference", rec.name)
			}
			rep.check(err)
			frames += len(parsed)
			if r == 0 {
				violations += len(rec.ref)
			}
		}
	}
	perFrame := func(ns int64) float64 { return float64(ns) / float64(frames) }
	rep.metrics["stream.parse_ns"] = perFrame(parseNS)
	rep.metrics["stream.ingest_ns"] = perFrame(ingestNS)
	rep.metrics["core.monitor_ns"] = perFrame(monNS)
	rep.metrics["service.stream_other_ns"] = float64(sessNS)/float64(sessFrames) - perFrame(parseNS) - perFrame(ingestNS)
	rep.metrics["stream.frames_rejected"] = float64(rejected)
	rep.metrics["core.violations"] = float64(violations)
	for _, m := range []string{"stream.parse_ns", "stream.ingest_ns", "core.monitor_ns"} {
		rep.samples[m] = frames
	}
	rep.samples["service.stream_other_ns"] = sessFrames
	rep.note("traced sessions %d, %.0f ns per frame whole-session", nSessions, float64(sessNS)/float64(sessFrames))
	return rep, finishTrace(e, tr, rep)
}
