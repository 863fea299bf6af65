package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"adassure/internal/core"
)

// recordedLines returns the frame lines of testdata/frames.ndjson: every
// 16th frame of a recorded urban-loop, pure-pursuit, gnss-drift-spoof run
// (seed 1, 40 s), exactly as the recorder encoded them.
func recordedLines(tb testing.TB) [][]byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/frames.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 10 {
		tb.Fatalf("testdata/frames.ndjson holds %d lines", len(lines))
	}
	return lines
}

// decoderParseFrame is ParseFrame with the scanner taken out: the
// encoding/json path called directly on every object line. It is the
// specification the scanner is held to.
func decoderParseFrame(line []byte) (core.Frame, error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return ParseFrame(line) // rejected before either decoder runs
	}
	f, err := decodeFrame(trimmed)
	if err != nil {
		return core.Frame{}, err
	}
	if !f.Finite() {
		return core.Frame{}, &FrameError{Reason: RejectNonFinite, Detail: "non-finite core signal"}
	}
	return f, nil
}

// frameDiff names the first field where a and b differ, comparing floats
// by their bits (so -0 differs from 0 and NaN payloads count), or returns
// "" when they are identical.
func frameDiff(a, b core.Frame) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		var same bool
		switch fa.Kind() {
		case reflect.Float64:
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		case reflect.Bool:
			same = fa.Bool() == fb.Bool()
		case reflect.Int:
			same = fa.Int() == fb.Int()
		default:
			return "unsupported field kind " + fa.Kind().String()
		}
		if !same {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// FuzzParseFrameMatchesDecoder holds ParseFrame to the encoding/json
// path: on every input both give the same frame bit for bit, or errors
// of the same type, reason and text.
func FuzzParseFrameMatchesDecoder(f *testing.F) {
	recorded := recordedLines(f)
	for _, l := range recorded {
		f.Add(l)
	}
	canon := recorded[len(recorded)/2]
	for _, s := range []string{
		`{"t":1}`, `{"estx":1}`, "{\"RejectStrea\u212a\":3}", // case-folded keys, Kelvin sign
		`{"\u0054":1}`,                      // escaped key that decodes to T
		`{"T":1,"T":2}`, `{"T":1,"T":null}`, // duplicate keys
		`{"T":null}`, `{"GNSSValid":null}`,
		`{"T":-0}`, `{"T":1e-400}`, `{"T":1e999}`, `{"T":-1E+2,"Dt":0.5e-3}`,
		`{"RejectStreak":1.5}`, `{"RejectStreak":1e2}`, `{"RejectStreak":99999999999999999999}`, `{"RejectStreak":-0}`,
		`{"GNSSValid":1}`, `{"NISFresh":"true"}`, `{"GNSSValid":truex}`,
		`{"T":[1]}`, `{"T":{"a":1}}`, `{"T":01}`, `{"T":1.}`, `{"T":.5}`, `{"T":+1}`, `{"T":1e}`,
		`{}`, `{ "T" : 1 , "Dt" : 2 }`, "{\t\"T\":1\r\n}", `{"T":1,}`, `{"T":1}}`, `{"T":1}]`, `{"T":1} {"T":2}`,
		`{"T" 1}`, `{"T":1 "Dt":2}`, `{"T"`, `{`, `{"\xff":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(append(bytes.Clone(canon), "\u00a0"...))
	f.Add(append(bytes.Clone(canon), 'x'))
	f.Add(bytes.Clone(canon[:len(canon)/2]))

	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := ParseFrame(line)
		want, wantErr := decoderParseFrame(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseFrame(%q) err = %v, decoder err = %v", line, gotErr, wantErr)
		}
		if wantErr != nil {
			if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("ParseFrame(%q) err = %T %q, decoder err = %T %q", line, gotErr, gotErr, wantErr, wantErr)
			}
			if g, w := gotErr.(*FrameError), wantErr.(*FrameError); g.Reason != w.Reason || g.Detail != w.Detail {
				t.Fatalf("ParseFrame(%q) = %+v, decoder = %+v", line, g, w)
			}
			return
		}
		if d := frameDiff(got, want); d != "" {
			t.Fatalf("ParseFrame(%q) differs from the decoder in %s:\n got %+v\nwant %+v", line, d, got, want)
		}
	})
}

// TestScanFrameCoversEveryField marshals a frame whose fields all hold
// distinct non-zero values and requires the scanner itself, not the
// fallback, to accept it and return every field unchanged. A Frame field
// the scanner has no case for fails here instead of quietly sending every
// line down the slow path.
func TestScanFrameCoversEveryField(t *testing.T) {
	var want core.Frame
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Float64:
			fv.SetFloat(float64(i+1) + 0.125)
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int:
			fv.SetInt(int64(i + 1))
		default:
			t.Fatalf("field %s has kind %s, which the scanner does not parse", v.Type().Field(i).Name, fv.Kind())
		}
	}
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got core.Frame
	if !scanFrame(line, &got) {
		t.Fatalf("scanFrame declined a marshalled frame: %s", line)
	}
	if d := frameDiff(got, want); d != "" {
		t.Fatalf("field %s did not round-trip through the scanner:\n got %+v\nwant %+v", d, got, want)
	}
}

// TestParseFrameAllocs pins the parse of a recorded line at zero
// allocations, which also fails if the scanner declines one: the
// decoder allocates.
func TestParseFrameAllocs(t *testing.T) {
	lines := recordedLines(t)
	allocs := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			if _, err := ParseFrame(l); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("parsing %d recorded lines costs %.1f allocs, want 0", len(lines), allocs)
	}
}

// BenchmarkParseFrame parses the recorded lines; ns/op is per line.
func BenchmarkParseFrame(b *testing.B) {
	lines := recordedLines(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFrame(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
