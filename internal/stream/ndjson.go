package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"adassure/internal/core"
)

// Frame lines use the same JSON encoding as a recorded core.Frame, so a
// stored Recording converts to a valid NDJSON stream with nothing more
// than `jq -c '.Frames[]' recording.json`.

// MaxLineBytes bounds one NDJSON input line. A frame line is ~1 KiB at
// full float precision; anything near the limit is garbage, and the
// scanner cannot resynchronise after an over-long line, so exceeding it
// is a terminal error.
const MaxLineBytes = 1 << 20

// Reject reasons carried by FrameError and frame-rejected events.
const (
	RejectSyntax     = "syntax"       // not valid JSON
	RejectNotObject  = "not-object"   // valid JSON but not an object
	RejectSchema     = "schema"       // unknown field or wrong value type
	RejectNonFinite  = "non-finite"   // NaN/Inf (or out-of-range number)
	RejectOutOfOrder = "out-of-order" // frame time regressed
)

// FrameError is one rejected frame: a malformed line or an out-of-order
// timestamp. FrameErrors are charged against the session's error budget
// but are not terminal by themselves — see Terminal.
type FrameError struct {
	Reason string // one of the Reject* constants
	Detail string
}

// Error implements error.
func (e *FrameError) Error() string {
	if e.Detail == "" {
		return "stream: frame rejected (" + e.Reason + ")"
	}
	return "stream: frame rejected (" + e.Reason + "): " + e.Detail
}

// BudgetError is the terminal error returned when a reject exceeds the
// session's malformed-line budget.
type BudgetError struct {
	// Rejected is the total number of rejected frames, including the one
	// that broke the budget.
	Rejected int64
	// Last is the rejection that broke the budget.
	Last *FrameError
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("stream: error budget exhausted after %d rejected frames: %v", e.Rejected, e.Last)
}

// Unwrap exposes the final rejection.
func (e *BudgetError) Unwrap() error { return e.Last }

// ErrClosed is returned by ingestion on a closed session.
var ErrClosed = errors.New("stream: session closed")

// Terminal reports whether an ingestion error ends the session (budget
// exhausted, session closed, or unrecoverable input) as opposed to a
// single rejected frame the session already absorbed.
func Terminal(err error) bool {
	if err == nil {
		return false
	}
	var be *BudgetError
	return errors.Is(err, ErrClosed) || errors.As(err, &be)
}

// ParseFrame decodes one NDJSON line into a Frame under the strict wire
// contract: the line must be a single JSON object with no unknown fields,
// no trailing data, and finite core signals. Every failure is a typed
// *FrameError — malformed input is diagnosed, never silently dropped.
//
// scanFrame reads the lines recorders emit in one pass without
// allocating; every line it declines goes to decodeFrame, which is
// encoding/json and decides the frame or the reject.
func ParseFrame(line []byte) (core.Frame, error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 {
		return core.Frame{}, &FrameError{Reason: RejectSyntax, Detail: "empty line"}
	}
	if trimmed[0] != '{' {
		// Catches bare scalars and, importantly, `null` — which
		// encoding/json would otherwise decode into a zero frame without
		// complaint.
		return core.Frame{}, &FrameError{Reason: RejectNotObject, Detail: "line is not a JSON object"}
	}
	var f core.Frame
	if !scanFrame(trimmed, &f) {
		var err error
		if f, err = decodeFrame(trimmed); err != nil {
			return core.Frame{}, err
		}
	}
	if !f.Finite() {
		return core.Frame{}, &FrameError{Reason: RejectNonFinite, Detail: "non-finite core signal"}
	}
	return f, nil
}

// decodeFrame decodes one object line with encoding/json, unknown fields
// disallowed and trailing data rejected. It is the reference for the wire
// format: it defines every reject reason and Detail string, and
// FuzzParseFrameMatchesDecoder holds scanFrame to it.
func decodeFrame(obj []byte) (core.Frame, error) {
	dec := json.NewDecoder(bytes.NewReader(obj))
	dec.DisallowUnknownFields()
	var f core.Frame
	if err := dec.Decode(&f); err != nil {
		return core.Frame{}, classifyDecodeError(err)
	}
	if dec.More() {
		return core.Frame{}, &FrameError{Reason: RejectSyntax, Detail: "trailing data after frame object"}
	}
	return f, nil
}

// scanFrame fills f from obj, a trimmed line that starts with '{', and
// reports whether it could. It accepts the subset of the wire format that
// recorders emit and declines the rest, leaving it to decodeFrame:
//
//   - one object with at least one member, JSON whitespace only, and
//     nothing after it;
//   - keys that are byte-exact Frame field names, without escapes
//     (encoding/json would also match case-folded and escaped keys);
//   - a JSON number for every float field, an integer literal for
//     RejectStreak, and true or false for the bools — no null, string or
//     nested value;
//   - numbers strconv parses without a range error.
//
// A repeated key overwrites the earlier value, as in encoding/json.
// Numbers go through strconv.ParseFloat and strconv.ParseInt on the
// literal, the calls encoding/json makes, so the frame's bits are the
// same. It allocates nothing while every literal fits in 32 bytes, which
// every float64 encoding/json writes does.
func scanFrame(obj []byte, f *core.Frame) bool {
	i := skipSpace(obj, 1)
	for {
		if i >= len(obj) || obj[i] != '"' {
			return false
		}
		// A key with an escape cannot match a field name, since none holds
		// a backslash, so the first quote ends every key scanField takes.
		n := bytes.IndexByte(obj[i+1:], '"')
		if n < 0 {
			return false
		}
		key := obj[i+1 : i+1+n]
		i = skipSpace(obj, i+2+n)
		if i >= len(obj) || obj[i] != ':' {
			return false
		}
		if i = scanField(obj, skipSpace(obj, i+1), key, f); i < 0 {
			return false
		}
		if i = skipSpace(obj, i); i >= len(obj) {
			return false
		}
		switch obj[i] {
		case ',':
			i = skipSpace(obj, i+1)
		case '}':
			return skipSpace(obj, i+1) == len(obj)
		default:
			return false
		}
	}
}

// scanField parses the value at obj[i:] into the field named key and
// returns the index just past it, or -1 to decline the line.
func scanField(obj []byte, i int, key []byte, f *core.Frame) int {
	var p *float64
	switch string(key) {
	case "GNSSValid":
		return scanBool(obj, i, &f.GNSSValid)
	case "NISFresh":
		return scanBool(obj, i, &f.NISFresh)
	case "RejectStreak":
		end := scanNumber(obj, i)
		if end < 0 {
			return -1
		}
		n, err := strconv.ParseInt(string(obj[i:end]), 10, 64)
		if err != nil || int64(int(n)) != n {
			return -1
		}
		f.RejectStreak = int(n)
		return end
	case "T":
		p = &f.T
	case "Dt":
		p = &f.Dt
	case "EstX":
		p = &f.EstX
	case "EstY":
		p = &f.EstY
	case "EstHeading":
		p = &f.EstHeading
	case "EstSpeed":
		p = &f.EstSpeed
	case "EstYawRate":
		p = &f.EstYawRate
	case "EstPosStdDev":
		p = &f.EstPosStdDev
	case "GNSSX":
		p = &f.GNSSX
	case "GNSSY":
		p = &f.GNSSY
	case "GNSSSpeed":
		p = &f.GNSSSpeed
	case "GNSSCourse":
		p = &f.GNSSCourse
	case "GNSSAge":
		p = &f.GNSSAge
	case "IMUHeading":
		p = &f.IMUHeading
	case "IMUYawRate":
		p = &f.IMUYawRate
	case "IMUAccel":
		p = &f.IMUAccel
	case "IMUAge":
		p = &f.IMUAge
	case "OdomSpeed":
		p = &f.OdomSpeed
	case "OdomAge":
		p = &f.OdomAge
	case "CmdSteer":
		p = &f.CmdSteer
	case "CmdAccel":
		p = &f.CmdAccel
	case "RefS":
		p = &f.RefS
	case "CTE":
		p = &f.CTE
	case "HeadingErr":
		p = &f.HeadingErr
	case "Curvature":
		p = &f.Curvature
	case "TargetSpeed":
		p = &f.TargetSpeed
	case "Progress":
		p = &f.Progress
	case "CurvAheadMin":
		p = &f.CurvAheadMin
	case "CurvAheadMax":
		p = &f.CurvAheadMax
	case "NIS":
		p = &f.NIS
	case "TrueX":
		p = &f.TrueX
	case "TrueY":
		p = &f.TrueY
	case "TrueHeading":
		p = &f.TrueHeading
	case "TrueSpeed":
		p = &f.TrueSpeed
	case "TrueCTE":
		p = &f.TrueCTE
	default:
		return -1
	}
	end := scanNumber(obj, i)
	if end < 0 {
		return -1
	}
	v, err := strconv.ParseFloat(string(obj[i:end]), 64)
	if err != nil {
		return -1
	}
	*p = v
	return end
}

// scanBool parses a true or false literal at b[i:] into *p and returns
// the index just past it, or -1.
func scanBool(b []byte, i int, p *bool) int {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		*p = true
		return i + 4
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		*p = false
		return i + 5
	}
	return -1
}

// scanNumber returns the index just past the JSON number (RFC 8259
// grammar) that starts at b[i], or -1 if none does.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first non-digit at or after b[i].
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// classifyDecodeError maps encoding/json failures onto reject reasons.
func classifyDecodeError(err error) *FrameError {
	var synErr *json.SyntaxError
	if errors.As(err, &synErr) {
		return &FrameError{Reason: RejectSyntax, Detail: err.Error()}
	}
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		// A JSON number that cannot become a float64 is an overflow —
		// JSON has no literal for ±Inf/NaN, so "number too large" is the
		// wire form of a non-finite value.
		if strings.HasPrefix(typeErr.Value, "number") && typeErr.Type != nil && typeErr.Type.Kind() == reflect.Float64 {
			return &FrameError{Reason: RejectNonFinite, Detail: err.Error()}
		}
		return &FrameError{Reason: RejectSchema, Detail: err.Error()}
	}
	if strings.Contains(err.Error(), "unknown field") {
		return &FrameError{Reason: RejectSchema, Detail: err.Error()}
	}
	return &FrameError{Reason: RejectSyntax, Detail: err.Error()}
}
