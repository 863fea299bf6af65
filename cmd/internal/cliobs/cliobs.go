// Package cliobs is the observability plumbing the commands share: the
// metrics registry behind -metrics/-pprof, the event recorder behind
// -events/-perfetto/-flight, and one writer for every output file a
// command produces. Each command keeps its own flags, the stream its
// confirmations go to and how it exits on error.
package cliobs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // serves /debug/pprof on the -pprof address
	"os"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// Registry builds the metrics registry behind -metrics and -pprof; it is
// nil when both are empty. With pprofAddr set it publishes the live
// snapshot under expvar and serves net/http/pprof there for the life of
// the process, reporting on stderr (a server error prefixed with prog).
func Registry(prog, metricsPath, pprofAddr string, stderr io.Writer) *obs.Registry {
	if metricsPath == "" && pprofAddr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	if pprofAddr != "" {
		expvar.Publish("adassure", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "%s: pprof server: %v\n", prog, err)
			}
		}()
		fmt.Fprintf(stderr, "pprof+expvar serving on http://%s/debug/pprof (metrics at /debug/vars)\n", pprofAddr)
	}
	return reg
}

// Recorder builds the event recorder behind -events and -perfetto: nil
// when every path is empty, else a ring of the newest flight events
// (flight <= 0 keeps everything).
func Recorder(flight int, paths ...string) *events.Recorder {
	for _, p := range paths {
		if p != "" {
			return events.NewRecorder(flight)
		}
	}
	return nil
}

// Files writes a command's output files.
type Files struct {
	// Stdout receives every output whose path is "-".
	Stdout io.Writer
	// Confirm receives the "<what> written to <path>" line after each file.
	Confirm io.Writer
}

// Write streams fn into path and confirms it. An empty path writes
// nothing; "-" writes to Stdout with no confirmation. Errors name what.
func (f Files) Write(path, what string, fn func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		if err := fn(f.Stdout); err != nil {
			return fmt.Errorf("write %s: %w", what, err)
		}
		return nil
	}
	out, err := os.Create(path)
	if err == nil {
		err = fn(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	fmt.Fprintf(f.Confirm, "%s written to %s\n", what, path)
	return nil
}

// Events writes the recorded timeline: its JSON log to eventsPath and its
// Chrome trace-event export (open in ui.perfetto.dev) to perfettoPath.
func (f Files) Events(rec *events.Recorder, eventsPath, perfettoPath string) error {
	if err := f.Write(eventsPath, "events", rec.WriteJSON); err != nil {
		return err
	}
	return f.Write(perfettoPath, "perfetto trace", func(w io.Writer) error {
		return events.WritePerfetto(w, rec.Events())
	})
}
