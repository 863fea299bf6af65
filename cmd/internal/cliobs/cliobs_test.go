package cliobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adassure/internal/events"
)

func hello(w io.Writer) error {
	_, err := io.WriteString(w, `{"hello":1}`)
	return err
}

func TestWriteFile(t *testing.T) {
	var stdout, confirm bytes.Buffer
	files := Files{Stdout: &stdout, Confirm: &confirm}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := files.Write(path, "report", hello); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != `{"hello":1}` {
		t.Fatalf("file holds %q (err %v)", b, err)
	}
	if want := "report written to " + path + "\n"; confirm.String() != want {
		t.Fatalf("confirmation %q, want %q", confirm.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("file output leaked to stdout: %q", stdout.String())
	}
}

func TestWriteEmptyPathIsNoop(t *testing.T) {
	var stdout, confirm bytes.Buffer
	called := false
	err := Files{Stdout: &stdout, Confirm: &confirm}.Write("", "metrics", func(io.Writer) error {
		called = true
		return nil
	})
	if err != nil || called || stdout.Len() != 0 || confirm.Len() != 0 {
		t.Fatalf("empty path: err %v, called %v, stdout %q, confirm %q", err, called, stdout.String(), confirm.String())
	}
}

// TestWriteDashIsStdout pins the one rule for "-": the output goes to
// Stdout, no file named "-" appears and nothing is confirmed.
func TestWriteDashIsStdout(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, confirm bytes.Buffer
	if err := (Files{Stdout: &stdout, Confirm: &confirm}).Write("-", "events", hello); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != `{"hello":1}` || confirm.Len() != 0 {
		t.Fatalf("stdout %q, confirm %q", stdout.String(), confirm.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a file named - was created (stat err %v)", err)
	}
}

func TestWriteErrors(t *testing.T) {
	var stdout, confirm bytes.Buffer
	files := Files{Stdout: &stdout, Confirm: &confirm}

	missing := filepath.Join(t.TempDir(), "no-such-dir", "m.json")
	err := files.Write(missing, "metrics", hello)
	if err == nil || !strings.HasPrefix(err.Error(), "write metrics: ") || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("uncreatable file: err = %v", err)
	}

	boom := errors.New("boom")
	fail := func(io.Writer) error { return boom }
	if err := files.Write(filepath.Join(t.TempDir(), "x"), "report", fail); !errors.Is(err, boom) {
		t.Fatalf("encoder error: err = %v", err)
	}
	if err := files.Write("-", "report", fail); !errors.Is(err, boom) {
		t.Fatalf("encoder error on stdout: err = %v", err)
	}
	if confirm.Len() != 0 {
		t.Fatalf("failed writes were confirmed: %q", confirm.String())
	}
}

func TestRecorderAndRegistryFollowFlags(t *testing.T) {
	if Recorder(5, "", "") != nil {
		t.Fatal("recorder built with no output path")
	}
	if rec := Recorder(5, "", "p.json"); rec == nil || rec.Capacity() != 5 {
		t.Fatalf("recorder = %v, want a 5-event ring", rec)
	}
	if Registry("prog", "", "", io.Discard) != nil {
		t.Fatal("registry built with neither -metrics nor -pprof")
	}
	if Registry("prog", "m.json", "", io.Discard) == nil {
		t.Fatal("no registry for -metrics")
	}
}

func TestEventsWritesLogAndPerfetto(t *testing.T) {
	dir := t.TempDir()
	rec := events.NewRecorder(0).WithoutWallClock()
	rec.Scope("s0/").Begin(events.CatScenario, "scenario", "run", 0, nil)
	rec.Scope("s0/").End(events.CatScenario, "scenario", "run", 1, nil)

	var confirm bytes.Buffer
	files := Files{Stdout: io.Discard, Confirm: &confirm}
	ev, pf := filepath.Join(dir, "e.json"), filepath.Join(dir, "p.json")
	if err := files.Events(rec, ev, pf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := events.ReadJSON(f)
	if err != nil || len(lg.Events) != 2 || lg.Events[0].Track != "s0/scenario" {
		t.Fatalf("events log %+v (err %v)", lg, err)
	}
	b, err := os.ReadFile(pf)
	if err != nil || !json.Valid(b) {
		t.Fatalf("perfetto file is not JSON (err %v)", err)
	}
	want := "events written to " + ev + "\nperfetto trace written to " + pf + "\n"
	if confirm.String() != want {
		t.Fatalf("confirmations %q, want %q", confirm.String(), want)
	}
}
