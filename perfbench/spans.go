package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call (or batch of calls) of the traced run.
// Times are nanoseconds since the run's clock origin.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects the spans of one goroutine's work without locking;
// IDs are indexes into the log until it is merged into a tracer.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// open starts a span under parent (-1 for a root of this log) and returns
// its ID.
func (l *spanLog) open(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans), Parent: parent, Start: l.now()})
	return len(l.spans) - 1
}

func (l *spanLog) close(id int) { l.spans[id].End = l.now() }

// add records an interval measured elsewhere (start and end on the same
// clock origin).
func (l *spanLog) add(name string, parent int, start, end int64) int {
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans), Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

// tracer owns every span of the run; logs from worker goroutines are
// merged in when their unit of work is done.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) log(capacity int) *spanLog {
	return &spanLog{t0: t.t0, spans: make([]span, 0, capacity)}
}

// open starts a span directly on the tracer, for coarse phases shared by
// several goroutines' logs.
func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].End - t.spans[id].Start
}

// merge appends a log's spans, re-numbering them; the log's roots become
// children of parent (-1 keeps them roots).
func (t *tracer) merge(l *spanLog, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := len(t.spans)
	for _, s := range l.spans {
		s.ID += off
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	total int64
	self  int64
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.total += d
		lt.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return sum + curB - curA
}

// write stores the spans as JSON under dir, one span per line inside the
// array so the file stays greppable.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[\n")
	for i, s := range t.spans {
		b, _ := json.Marshal(s)
		w.Write(b)
		if i < len(t.spans)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
