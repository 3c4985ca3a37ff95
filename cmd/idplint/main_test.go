package main

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestTreeLintClean runs every registered analyzer over the real tree
// — the same load and run the binary performs — and requires zero
// diagnostics and zero stale allow directives. This is the contract CI
// enforces with `idplint -strict ./...`; keeping it as a test means
// `go test ./...` alone catches a regression, and a new analyzer
// cannot land without either a clean tree or a reasoned
// //idplint:allow at each exception.
func TestTreeLintClean(t *testing.T) {
	prog, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	diags, stale, err := analysis.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree not lint-clean: %s", d)
	}
	for _, s := range stale {
		t.Errorf("stale allow directive: %s", s)
	}
}

// TestFixturesStillFire is the negative control: each analyzer, run
// over its own fixture program, must produce exactly the pinned number
// of diagnostics. A clean tree proves nothing if an analyzer has gone
// blind — this proves each one still fires, and the exact counts catch
// both lost and spurious findings when analyzer or fixture changes.
func TestFixturesStillFire(t *testing.T) {
	cases := []struct {
		analyzer string
		packages []string // loaded as one program from the analyzer's testdata/src
		want     int
	}{
		{"globalrand", []string{"repro/internal/workload"}, 8},
		{"globalrand", []string{"repro/examples/demo"}, 1},
		{"lpconfine", []string{"repro/internal/confix", "repro/internal/conapp"}, 9},
		{"maporder", []string{"repro/internal/core"}, 5},
		{"nogoroutine", []string{"repro/internal/sched"}, 2},
		{"nogoroutine", []string{"repro/internal/simkit"}, 1},
		{"seedflow", []string{"repro/internal/seedfix", "repro/internal/seedapp"}, 3},
		{"sendcontract", []string{"repro/internal/sendfix"}, 7},
		{"wallclock", []string{"repro/internal/disk"}, 14},
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	for _, tc := range cases {
		a := byName[tc.analyzer]
		if a == nil {
			t.Errorf("%s: not registered in cmd/idplint", tc.analyzer)
			continue
		}
		src := filepath.Join("../../internal/analysis/passes", tc.analyzer, "testdata", "src")
		prog, err := analysis.LoadFixtureProgram(src, tc.packages...)
		if err != nil {
			t.Errorf("%s: loading fixtures %v: %v", tc.analyzer, tc.packages, err)
			continue
		}
		diags, _, err := analysis.Run(prog, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%s: %v", tc.analyzer, err)
			continue
		}
		if len(diags) != tc.want {
			t.Errorf("%s over %v: %d diagnostics, want %d", tc.analyzer, tc.packages, len(diags), tc.want)
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		}
	}
}
