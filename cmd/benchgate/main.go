// Command benchgate parses `go test -bench -benchmem` output and gates
// allocation regressions against a committed baseline.
//
//	usage: benchgate [-input bench.out] -emit
//	       benchgate [-input bench.out] -baseline BENCH_pr16.json [-tolerance 0.10]
//
// With -emit it writes the parsed results as JSON to stdout (the format
// of a baseline file's "after" section). With -baseline it compares the
// parsed results against the baseline's "after" section and exits
// non-zero if any benchmark's allocs/op regressed by more than the
// tolerance (plus a small absolute slack for one-time setup noise), or
// if any benchmark in the input has no baseline row: an unbaselined
// benchmark would otherwise let any allocation through.
// Wall-clock ns/op is reported but never gated: CI machines are too
// noisy for time to be a hard bound, while allocs/op is deterministic.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed reference file. Before documents where the
// code started (informational); After is what the gate compares against.
type Baseline struct {
	Note   string            `json:"note,omitempty"`
	Before map[string]Result `json:"before,omitempty"`
	After  map[string]Result `json:"after"`
}

// cpuSuffix matches go test's -GOMAXPROCS name suffix. It cannot be
// stripped unconditionally — a sub-benchmark's own name may end in a
// number (fcfs-64) — so lookup tries the exact name first and strips
// one trailing -N only as a fallback.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark lines from go test output. Lines that are
// not benchmark results (test output, pass/fail summaries) are skipped.
func parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		res := Result{}
		seen := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q for %s", f[i], name)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if seen {
			out[name] = res
		}
	}
	return out, sc.Err()
}

func main() {
	var (
		input     = flag.String("input", "", "bench output file (default stdin)")
		emit      = flag.Bool("emit", false, "emit parsed results as JSON and exit")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against")
		tolerance = flag.Float64("tolerance", 0.10, "allowed relative allocs/op regression")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("benchgate: no benchmark lines in input"))
	}

	if *emit {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			fatal(err)
		}
		return
	}
	if *baseline == "" {
		fatal(fmt.Errorf("benchgate: need -emit or -baseline"))
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(err)
	}

	failed, err := gate(os.Stdout, got, base, *tolerance)
	if err != nil {
		fatal(err)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: allocs/op regressed beyond tolerance or a benchmark has no baseline row")
		os.Exit(1)
	}
}

// gate compares the parsed results against the baseline's After
// section, writing one status line per benchmark. It reports whether
// any benchmark regressed or has no baseline row, and errors when the
// input shares no benchmark with the baseline at all: a run whose
// bench selection drifted away from the baseline would otherwise
// "pass" while gating nothing.
func gate(w io.Writer, got map[string]Result, base Baseline, tolerance float64) (failed bool, err error) {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	matched := 0
	for _, name := range names {
		cur := got[name]
		ref, ok := base.After[name]
		if !ok {
			// Fallback: the run appended a -GOMAXPROCS suffix the
			// baseline machine did not (or vice versa).
			ref, ok = base.After[cpuSuffix.ReplaceAllString(name, "")]
		}
		if !ok {
			fmt.Fprintf(w, "  FAIL %-45s allocs/op=%.0f (no baseline row)\n", name, cur.AllocsPerOp)
			failed = true
			continue
		}
		matched++
		// Gate allocs/op with relative tolerance plus 2 allocs of
		// absolute slack: one-time setup divided by small benchtime
		// iteration counts must not trip the gate.
		allowed := ref.AllocsPerOp*(1+tolerance) + 2
		status := "ok"
		if cur.AllocsPerOp > allowed {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(w, "  %-4s %-45s allocs/op=%.0f baseline=%.0f ns/op=%.0f (baseline %.0f)\n",
			status, name, cur.AllocsPerOp, ref.AllocsPerOp, cur.NsPerOp, ref.NsPerOp)
	}
	if matched == 0 {
		return false, fmt.Errorf("benchgate: none of the baseline's %d benchmarks appear in the input (%d parsed); the gate would pass vacuously", len(base.After), len(got))
	}
	return failed, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
