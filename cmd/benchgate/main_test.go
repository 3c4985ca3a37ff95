package main

import (
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: repro
BenchmarkEngine-8         	    1000	        88 ns/op	       0 B/op	       0 allocs/op
BenchmarkQueue/fcfs-4096-8	    1000	         8 ns/op	       0 B/op	       0 allocs/op
BenchmarkFleetSweep       	       1	 206000000 ns/op	320000 B/op	  320000 allocs/op
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(got), got)
	}
	r, ok := got["BenchmarkFleetSweep"]
	if !ok {
		t.Fatal("BenchmarkFleetSweep missing from parse")
	}
	if r.AllocsPerOp != 320000 || r.NsPerOp != 206000000 {
		t.Errorf("BenchmarkFleetSweep = %+v, want allocs/op=320000 ns/op=206000000", r)
	}
}

func TestParseMalformedValue(t *testing.T) {
	// A line that looks like a benchmark but carries a garbage number
	// must be a hard error, not silently dropped: it means the bench
	// output format changed under us.
	_, err := parse(strings.NewReader("BenchmarkX 100 oops ns/op\n"))
	if err == nil || !strings.Contains(err.Error(), "bad value") {
		t.Fatalf("got %v, want bad-value parse error", err)
	}
}

func TestParseSkipsNonBenchmarkLines(t *testing.T) {
	got, err := parse(strings.NewReader("PASS\nok repro 0.1s\nsome log line\nBenchmark\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d results from non-benchmark input, want 0", len(got))
	}
}

func baselineFor(names ...string) Baseline {
	after := make(map[string]Result)
	for _, n := range names {
		after[n] = Result{AllocsPerOp: 100}
	}
	return Baseline{After: after}
}

func TestGateNoOverlapFails(t *testing.T) {
	got := map[string]Result{"BenchmarkNewThing-8": {AllocsPerOp: 5}}
	var out strings.Builder
	_, err := gate(&out, got, baselineFor("BenchmarkEngine"), 0.10)
	if err == nil || !strings.Contains(err.Error(), "none of the baseline's") {
		t.Fatalf("got %v, want vacuous-gate error", err)
	}
}

func TestGateRegression(t *testing.T) {
	base := baselineFor("BenchmarkEngine")
	var out strings.Builder

	failed, err := gate(&out, map[string]Result{"BenchmarkEngine": {AllocsPerOp: 200}}, base, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Errorf("allocs/op 200 vs baseline 100 at 10%% tolerance should fail; output:\n%s", out.String())
	}

	out.Reset()
	failed, err = gate(&out, map[string]Result{"BenchmarkEngine": {AllocsPerOp: 105}}, base, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("allocs/op 105 vs baseline 100 at 10%% tolerance should pass; output:\n%s", out.String())
	}
}

func TestGateCPUSuffixFallback(t *testing.T) {
	// The run machine appended -8; the baseline was recorded without.
	var out strings.Builder
	failed, err := gate(&out, map[string]Result{"BenchmarkEngine-8": {AllocsPerOp: 100}}, baselineFor("BenchmarkEngine"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("suffix fallback should match the baseline; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("expected an ok status line, got:\n%s", out.String())
	}
}

func TestGateUnbaselinedFails(t *testing.T) {
	// A benchmark CI runs but the baseline lacks would gate nothing:
	// it must fail, named on its status line.
	got := map[string]Result{
		"BenchmarkEngine":   {AllocsPerOp: 100},
		"BenchmarkNewThing": {AllocsPerOp: 0},
	}
	var out strings.Builder
	failed, err := gate(&out, got, baselineFor("BenchmarkEngine"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Errorf("a benchmark with no baseline row should fail the gate; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkNewThing") {
		t.Errorf("the unbaselined benchmark is not named as failing; output:\n%s", out.String())
	}
}
