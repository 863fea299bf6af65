package adassure

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// packageTiers is the layering of internal/ (ARCHITECTURE.md, "Package
// tiers"): a package may import packages of its own tier or a lower one,
// never a higher one, and never the root façade, a command or an example.
var packageTiers = map[string]int{
	// 0 — foundations.
	"geom": 0, "obs": 0, "trace": 0, "events": 0, "telemetry": 0,
	// 1 — the assertion framework and the execution substrate.
	"core": 1, "runner": 1, "jobs": 1, "shard": 1, "store": 1,
	// 2 — the simulated platform.
	"vehicle": 2, "track": 2, "sensors": 2, "attacks": 2, "fusion": 2,
	"planner": 2, "control": 2, "sim": 2,
	// 3 — the methodology and the engines built on it.
	"diagnosis": 3, "forensics": 3, "offline": 3, "coverage": 3, "metrics": 3,
	"report": 3, "stream": 3, "mutate": 3, "search": 3, "scenario": 3,
	// 4 — delivery.
	"harness": 4, "service": 4, "tools/benchjson": 4,
}

// TestInternalImportDirection parses the imports of every non-test Go
// file under internal/ and fails on any edge that points up the tier map
// or out of internal/ into the façade, a command or an example.
func TestInternalImportDirection(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		files++
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(p)), "internal/")
		tier, ok := packageTiers[pkg]
		if !ok {
			t.Errorf("%s: package internal/%s has no tier; add it to packageTiers and ARCHITECTURE.md", p, pkg)
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case ip == "adassure", strings.HasPrefix(ip, "adassure/cmd/"), strings.HasPrefix(ip, "adassure/examples/"):
				t.Errorf("%s imports %s: internal packages must not import the façade, commands or examples", p, ip)
			case strings.HasPrefix(ip, "adassure/internal/"):
				dep := strings.TrimPrefix(ip, "adassure/internal/")
				if dt, ok := packageTiers[dep]; !ok {
					t.Errorf("%s imports internal/%s, which has no tier", p, dep)
				} else if dt > tier {
					t.Errorf("%s (tier %d) imports internal/%s (tier %d): imports must not point up the tiers",
						p, tier, dep, dt)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no non-test Go files found under internal/")
	}
}
