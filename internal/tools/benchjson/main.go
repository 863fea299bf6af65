// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a machine-readable JSON array on stdout, so benchmark runs
// can accumulate as comparable artifacts (see the Makefile bench-json
// target: `make bench-json BENCH=N` writes BENCH_N.json).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./internal/tools/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark identifier without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Package is the Go package the benchmark ran in ("" when the input
	// carries no "pkg:" header, e.g. a single-package run).
	Package string `json:"package,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func main() {
	results, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Parse extracts benchmark results from go test output. Non-benchmark
// lines (PASS, ok, test logs) are ignored; "pkg:" headers attribute the
// following benchmarks to their package.
func Parse(r io.Reader) ([]Result, error) {
	var (
		out = []Result{}
		pkg string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseLine(line)
		if !ok {
			continue
		}
		res.Package = pkg
		out = append(out, res)
	}
	return out, sc.Err()
}

// parseLine parses one "BenchmarkName-N  iters  X ns/op [Y B/op  Z
// allocs/op]" line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: name, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false
			}
			seen = true
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		}
	}
	return res, seen
}
