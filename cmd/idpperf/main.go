// Command idpperf is the repository's benchmark. It runs one named
// workload for a fixed measured time and prints every metric by name
// with its unit, then one JSON result line:
//
//	idpperf --workload figs --seed 1 --seconds 10 --trace 0
//
// Workloads: figs (the single-drive figure sections of idpbench -exp
// all), saturation (what-if design points near saturation), raid
// (Figure 8 plus the 64-drive partitioned array, healthy and degraded),
// serve (the what-if HTTP service, cache hits and cold misses) and
// ingest (trace readers and replay, four formats).
//
// With --trace 0 a run sets up several times, then repeats the
// workload's pass until --seconds have elapsed and reports the
// end-to-end host metrics (medians over passes). With --trace 1 it
// alternates each pass with a traced rebuild of the same simulations,
// its layers wrapped in spans, and reports the per-layer metrics; the
// traced pass must reproduce the untraced pass's output digest.
//
// Pass 0 runs on --seed itself; at seed 1 and the default scale its
// digest must equal the golden one in testdata/golden.json (regenerate
// with `go test . -update`). Later passes derive their seeds from it.
// run.sh builds the command inside the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends every run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
	scale    scale
	log      io.Writer // human-readable progress and metric lines
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer mode")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "idpperf"), "directory for trace files and span records")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "idpperf: need --workload (%s), --trace 0 or 1, --seconds >= 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(options{
		workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1,
		workdir: *workdir, scale: defaultScale(), log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "idpperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idpperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up Setups times, then runs its measured phase.
func run(o options) (*result, error) {
	w := workloads[o.workload](o.scale, o.workdir)
	printEnv(o)
	setups := make([]float64, 0, o.scale.Setups)
	var refs []float64
	for i := 0; i < o.scale.Setups; i++ {
		refs = append(refs, refSample(o.scale.Workers))
		start := nanotime()
		if err := w.setup(o.seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, float64(nanotime()-start)/1e9)
	}
	fmt.Fprintf(o.log, "idpperf: setup %s s\n", formatList(setups))

	var res *result
	var err error
	if o.traced {
		res, err = runTraced(o, w)
	} else {
		res, err = runUntraced(o, w, setups, refs)
	}
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s: %w", o.workload, cerr)
	}
	return res, err
}

// printEnv records the method: machine, toolchain, seed and scale.
func printEnv(o options) {
	sc, _ := json.Marshal(o.scale)
	fmt.Fprintf(o.log, "idpperf: workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Fprintf(o.log, "idpperf: scale %s\n", sc)
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pass is one timed pass: its output plus host measurements.
type pass struct {
	out    *passOut
	err    error
	wallS  float64
	host   hostDelta
	digest string
}

func timedPass(w benchWorkload, seed int64, c *collector) pass {
	before := readHost()
	start := nanotime()
	out, err := w.pass(seed, c)
	p := pass{out: out, err: err, wallS: float64(nanotime()-start) / 1e9}
	p.host = readHost().sub(before)
	if out != nil {
		p.wallS -= float64(out.untimedNs) / 1e9
		p.digest = out.digest()
	}
	return p
}

// tally counts a pass's ops into the result; a pass that failed
// without recording a failed op counts as one failed op.
func tally(res *result, p pass) {
	failedOps := 0
	if p.out != nil {
		for _, op := range p.out.ops {
			if op.failed {
				failedOps++
			}
		}
		res.Attempted += len(p.out.ops)
	}
	if p.err != nil && failedOps == 0 {
		failedOps = 1
		res.Attempted++
	}
	res.Failed += failedOps
}

func runUntraced(o options, w benchWorkload, setups, refs []float64) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var passes []pass
	start := nanotime()
	for k := 0; k == 0 || float64(nanotime()-start)/1e9 < o.seconds; k++ {
		refs = append(refs, refSample(o.scale.Workers))
		p := timedPass(w, passSeed(o.seed, k), nil)
		tally(res, p)
		if p.err != nil {
			fmt.Fprintf(o.log, "idpperf: pass %d failed: %v\n", k, p.err)
			break
		}
		note := ""
		if k == 0 {
			ok, msg := checkGolden(o, p.digest)
			note = " " + msg
			if !ok {
				res.Failed++
			}
		}
		fmt.Fprintf(o.log, "idpperf: pass %d seed=%d wall=%.3fs sim_req=%d digest=%s%s\n",
			k, passSeed(o.seed, k), p.wallS, p.out.simReqs, p.digest, note)
		passes = append(passes, p)
	}
	res.Correct = res.Failed == 0 && len(passes) > 0
	if len(passes) == 0 {
		return res, nil
	}
	refs = append(refs, refSample(o.scale.Workers))
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	ref := median(refs)
	endToEnd(res, setups, passes, rss, refNominalS/ref)
	ops := res.Attempted
	fmt.Fprintf(o.log, "idpperf: %d passes, %d ops; op_p99_ms has %d ops above it\n",
		len(passes), ops, ops-int(math.Ceil(0.99*float64(ops))))
	fmt.Fprintf(o.log, "idpperf: reference %.2f ms (median of %d, nominal %.2f ms): times below are measured times x %.4f; raw wall_s %.6f s\n",
		ref*1e3, len(refs), refNominalS*1e3, refNominalS/ref, res.Metrics["wall_s"].Value*ref/refNominalS)
	printMetrics(o.log, res.Metrics, e2eMetrics)
	return res, nil
}

func runTraced(o options, w benchWorkload) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	cost := calibrateSpan()
	fmt.Fprintf(o.log, "idpperf: an empty span costs %.1f ns, %.1f ns of it inside its own interval\n", cost.outer, cost.inner)
	var untraced, traced []pass
	var cols []*collector
	record := maxRecordedSims
	start := nanotime()
	for k := 0; k == 0 || float64(nanotime()-start)/1e9 < o.seconds; k++ {
		seed := passSeed(o.seed, k)
		u := timedPass(w, seed, nil)
		tally(res, u)
		if u.err != nil {
			fmt.Fprintf(o.log, "idpperf: pass %d failed: %v\n", k, u.err)
			break
		}
		c := newCollector(record)
		record = 0
		t := timedPass(w, seed, c)
		tally(res, t)
		if t.err != nil {
			fmt.Fprintf(o.log, "idpperf: traced pass %d failed: %v\n", k, t.err)
			break
		}
		match := "traced digest matches"
		if t.digest != u.digest {
			match = "TRACED DIGEST DIFFERS " + t.digest
			res.Failed++
		}
		fmt.Fprintf(o.log, "idpperf: pass %d seed=%d wall=%.3fs traced=%.3fs digest=%s %s\n",
			k, seed, u.wallS, t.wallS, u.digest, match)
		untraced = append(untraced, u)
		traced = append(traced, t)
		cols = append(cols, c)
	}
	res.Correct = res.Failed == 0 && len(traced) > 0
	if len(traced) == 0 {
		return res, nil
	}
	extra := map[string]float64{}
	if x, ok := w.(extraLayers); ok {
		var err error
		if extra, err = x.extra(o.seed); err != nil {
			return nil, err
		}
	}
	rep := newLayerReport(cols, traced, cost, o.scale.Workers)
	perLayer(res, rep, untraced, extra)
	printMetrics(o.log, res.Metrics, layerMetrics)
	rep.reconcile(o.log, o.workload)

	var all []*tracer
	for _, c := range cols {
		all = append(all, c.tracers...)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.workdir, "spans-"+o.workload+".csv")
	if err := writeRecords(path, all); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "idpperf: span records of the first %d requests per simulation in %s\n", recordReqs, path)
	return res, nil
}

// extraLayers is implemented by workloads with per-layer measurements
// made once per traced run, after its passes.
type extraLayers interface {
	extra(seed int64) (map[string]float64, error)
}

func printMetrics(w io.Writer, ms map[string]metric, order []metricDef) {
	for _, d := range order {
		m := ms[d.name]
		fmt.Fprintf(w, "idpperf: %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
