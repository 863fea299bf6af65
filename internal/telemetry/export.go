package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Schema is the exported-trace schema identifier.
const Schema = "adassure/spans/v1"

// LinkExport is the wire form of a cross-trace link.
type LinkExport struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// SpanExport is the wire form of one finished span.
type SpanExport struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUnixNS / EndUnixNS are wall-clock Unix nanoseconds.
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Links       []LinkExport      `json:"links,omitempty"`
}

// TraceExport is one self-contained trace document — the body of
// GET /debug/traces/<id> and the input of the Perfetto converter.
type TraceExport struct {
	Schema  string       `json:"schema"`
	TraceID string       `json:"trace_id"`
	Spans   []SpanExport `json:"spans"`
	// Dropped counts spans lost to the per-trace cap.
	Dropped int `json:"dropped,omitempty"`
}

// Export returns the retained trace as a serialisable document, spans in
// start-time order. ok is false when the trace is unknown or evicted.
func (t *Tracer) Export(id TraceID) (TraceExport, bool) {
	if t == nil {
		return TraceExport{}, false
	}
	t.mu.Lock()
	rec, ok := t.traces[id]
	if !ok {
		t.mu.Unlock()
		return TraceExport{}, false
	}
	spans := make([]SpanData, len(rec.spans))
	copy(spans, rec.spans)
	dropped := rec.dropped
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	exp := TraceExport{Schema: Schema, TraceID: id.String(), Dropped: dropped,
		Spans: make([]SpanExport, 0, len(spans))}
	for _, sd := range spans {
		se := SpanExport{
			SpanID:      sd.SpanID.String(),
			ParentID:    sd.Parent.String(),
			Name:        sd.Name,
			StartUnixNS: sd.Start,
			EndUnixNS:   sd.End,
			DurationNS:  sd.End - sd.Start,
			Attrs:       sd.Attrs,
		}
		for _, l := range sd.Links {
			se.Links = append(se.Links, LinkExport{TraceID: l.TraceID.String(), SpanID: l.SpanID.String()})
		}
		exp.Spans = append(exp.Spans, se)
	}
	return exp, true
}

// WriteJSON serialises the trace as indented JSON.
func (e TraceExport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("telemetry: encode trace: %w", err)
	}
	return nil
}

// ReadTrace parses a trace previously produced by Export/WriteJSON (e.g.
// fetched from /debug/traces/<id>).
func ReadTrace(r io.Reader) (TraceExport, error) {
	var e TraceExport
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return TraceExport{}, fmt.Errorf("telemetry: decode trace: %w", err)
	}
	if e.Schema != Schema {
		return TraceExport{}, fmt.Errorf("telemetry: unsupported schema %q (want %q)", e.Schema, Schema)
	}
	return e, nil
}

// perfettoEvent mirrors internal/events' Chrome trace-event shape; it is
// re-declared here so telemetry imports no other package of the repo.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfetto exports a trace in Chrome trace-event JSON ("X" complete
// events, µs relative to the trace's earliest span), loadable in Perfetto
// or chrome://tracing. All spans share one thread; Perfetto nests them by
// containment, which matches the serving tier's stack-shaped spans.
func WritePerfetto(w io.Writer, tr TraceExport) error {
	var base int64
	for i, sp := range tr.Spans {
		if i == 0 || sp.StartUnixNS < base {
			base = sp.StartUnixNS
		}
	}
	out := []perfettoEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "trace " + tr.TraceID},
	}}
	for _, sp := range tr.Spans {
		ev := perfettoEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(sp.StartUnixNS-base) / 1e3,
			Dur:  float64(sp.DurationNS) / 1e3,
			Pid:  1,
			Tid:  1,
		}
		if len(sp.Attrs) > 0 || len(sp.Links) > 0 {
			args := make(map[string]any, len(sp.Attrs)+1)
			for k, v := range sp.Attrs {
				args[k] = v
			}
			for i, l := range sp.Links {
				args[fmt.Sprintf("link.%d", i)] = l.TraceID + "/" + l.SpanID
			}
			ev.Args = args
		}
		out = append(out, ev)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(perfettoFile{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("telemetry: encode perfetto: %w", err)
	}
	return nil
}

// Render writes the human-readable account of a trace (the
// `adassure-trace spans` view): one line per span, indented by parent
// depth, with duration and attributes.
func (e TraceExport) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s (%d spans", e.TraceID, len(e.Spans))
	if e.Dropped > 0 {
		fmt.Fprintf(&sb, ", %d dropped", e.Dropped)
	}
	sb.WriteString(")\n")

	depth := make(map[string]int, len(e.Spans))
	byID := make(map[string]SpanExport, len(e.Spans))
	for _, sp := range e.Spans {
		byID[sp.SpanID] = sp
	}
	var depthOf func(id string) int
	depthOf = func(id string) int {
		if d, ok := depth[id]; ok {
			return d
		}
		depth[id] = 0 // pre-seed: breaks parent cycles in corrupt files
		sp, ok := byID[id]
		if !ok || sp.ParentID == "" {
			return 0
		}
		if _, ok := byID[sp.ParentID]; !ok {
			return 0 // remote parent (propagated traceparent)
		}
		d := 1 + depthOf(sp.ParentID)
		depth[id] = d
		return d
	}

	var base int64
	for i, sp := range e.Spans {
		if i == 0 || sp.StartUnixNS < base {
			base = sp.StartUnixNS
		}
	}
	for _, sp := range e.Spans {
		indent := strings.Repeat("  ", depthOf(sp.SpanID))
		fmt.Fprintf(&sb, "  %s%-*s  +%8.3f ms  %10.3f ms  [%s]",
			indent, 28-2*depthOf(sp.SpanID), sp.Name,
			float64(sp.StartUnixNS-base)/1e6, float64(sp.DurationNS)/1e6, sp.SpanID)
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, sp.Attrs[k])
			}
		}
		for _, l := range sp.Links {
			fmt.Fprintf(&sb, " link=%s/%s", l.TraceID, l.SpanID)
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
