package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"adassure/internal/jobs"
	"adassure/internal/telemetry"
)

// JobStateHeader reports a job's lifecycle state on /v1/jobs/{id}/result
// responses, so a poller can tell a failed job's error document from a
// done job's evidence without a second request.
const JobStateHeader = "X-Adassure-Job-State"

// JobsLimits tunes the async job tier of one server.
type JobsLimits struct {
	// Workers is the dispatcher count (default 2).
	Workers int
	// QueueDepth bounds admitted-but-undispatched jobs (default 8×Workers).
	QueueDepth int
	// Retention bounds finished jobs kept for polling (default 256).
	Retention int
	// Disable turns the /v1/jobs endpoints off entirely.
	Disable bool
}

// jobPayload is what the service stashes in a job: the canonical request,
// its content address, and the submitting request's root span (safe to
// StartChild from after the submit response was written — span identity
// fields are immutable).
type jobPayload struct {
	req  Request
	key  string
	root *telemetry.Span
}

// errBackpressure marks an execution attempt shed by the local pool (or a
// remote worker) — the one error class the job tier retries.
var errBackpressure = errors.New("backpressure")

// jobRetryable classifies job-execution errors for the retry loop.
func jobRetryable(err error) bool {
	return errors.Is(err, errBackpressure)
}

// execJob is the jobs.Manager Exec hook of the standalone service: run
// the job's canonical request through the shared cache → store →
// single-flight → pool core, under a child span of the submitting
// request's trace.
func (s *Server) execJob(ctx context.Context, j *jobs.Job) (jobs.Result, error) {
	p, ok := j.Payload.(jobPayload)
	if !ok {
		return jobs.Result{}, fmt.Errorf("job %s: unexpected payload %T", j.ID, j.Payload)
	}
	sp := p.root.StartChild("job.execute")
	sp.SetAttr("job_id", j.ID)
	defer sp.End()

	body, status, disposition, worker, err := s.runKeyed(ctx, sp, p.req, p.key)
	if err != nil {
		// Only ctx expiry lands here: shutdown or DELETE cancellation.
		sp.SetAttr("error", err.Error())
		return jobs.Result{}, err
	}
	res := jobs.Result{Body: body, Status: status, Cache: disposition, Worker: worker}
	switch status {
	case http.StatusOK:
		return res, nil
	case http.StatusTooManyRequests, http.StatusBadGateway:
		// Backpressure (local queue full) or a fleet-wide routing failure:
		// both are transient, so the retry budget applies. The body (the
		// error envelope) is kept so an exhausted budget still yields a
		// useful failure document.
		return res, fmt.Errorf("%w: status %d", errBackpressure, status)
	default:
		return res, fmt.Errorf("execution failed: status %d", status)
	}
}

// handleJobSubmit admits one scenario asynchronously: decode and
// canonicalize exactly like /v1/run, then enqueue. 202 + job snapshot on
// success, 429 + Retry-After when the job queue is full.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	sp := telemetry.SpanFrom(r.Context())

	canon, ok := decodeCanonical[Request](s, w, r)
	if !ok {
		return
	}
	key := canon.Key()

	j, err := s.jobs.Submit(jobPayload{req: canon, key: key, root: sp}, key, sp.TraceID().String())
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.shedded.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
			writeJSON(w, http.StatusTooManyRequests, errorBody(err.Error()))
		default: // ErrClosed
			writeJSON(w, http.StatusServiceUnavailable, errorBody(err.Error()))
		}
		return
	}
	sp.SetAttr("job_id", j.ID)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	b, _ := json.Marshal(j.Snapshot())
	writeJSON(w, http.StatusAccepted, b)
}

// jobByID resolves {id} or answers 404 with the uniform error envelope.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		s.badReqs.Inc()
		writeJSON(w, http.StatusNotFound, errorBody("unknown job "+id))
		return nil, false
	}
	return j, true
}

// handleJobGet is the poll endpoint: the job's lifecycle snapshot.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	b, _ := json.Marshal(j.Snapshot())
	writeJSON(w, http.StatusOK, b)
}

// handleJobResult serves a finished job's bytes with the status and cache
// disposition of the execution — byte-identical to what POST /v1/run
// would have returned for the same request. 409 while the job is still
// queued or running, 410 for a cancelled job that produced nothing.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	res, done := j.ResultIfDone()
	if !done {
		snap := j.Snapshot()
		if snap.State == jobs.StateCancelled {
			w.Header().Set(JobStateHeader, string(snap.State))
			writeJSON(w, http.StatusGone, errorBody("job "+j.ID+" was cancelled"))
			return
		}
		w.Header().Set(JobStateHeader, string(snap.State))
		writeJSON(w, http.StatusConflict, errorBody("job "+j.ID+" is "+string(snap.State)+"; poll until done"))
		return
	}
	w.Header().Set(JobStateHeader, string(j.State()))
	if res.Cache != "" {
		w.Header().Set(CacheHeader, res.Cache)
	}
	if res.Worker != "" {
		w.Header().Set("X-Adassure-Worker", res.Worker)
	}
	writeJSON(w, res.Status, res.Body)
}

// handleJobEvents streams a job's event log as NDJSON: recorded events
// replay immediately, then the stream follows live appends until the job
// reaches a terminal state, the client disconnects, or the server drains.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	s.streamWG.Add(1)
	defer s.streamWG.Done()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	var seq int64
	for {
		events, follow := j.EventsSince(seq)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return // client gone
			}
			seq = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if follow == nil {
			return // terminal: the log is complete
		}
		select {
		case <-follow:
		case <-r.Context().Done():
			return
		case <-s.streamCtx.Done():
			return
		}
	}
}

// handleJobCancel requests cancellation. The snapshot reports the state
// the job landed in; "applied" is false when the job was already
// terminal.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	id := r.PathValue("id")
	snap, applied, err := s.jobs.Cancel(id)
	if err != nil {
		s.badReqs.Inc()
		writeJSON(w, http.StatusNotFound, errorBody("unknown job "+id))
		return
	}
	b, _ := json.Marshal(struct {
		jobs.Snapshot
		Applied bool `json:"applied"`
	}{snap, applied})
	writeJSON(w, http.StatusOK, b)
}

// jobsWaitPoll is the client-side poll cadence for WaitJob.
const jobsWaitPoll = 25 * time.Millisecond
