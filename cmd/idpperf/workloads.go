package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scale sizes every workload. Each measured pass is kept to a second or
// a few, so one run of --seconds holds several passes and reports their
// median.
type scale struct {
	// Workers is the fleet Parallelism, the serve worker pool and client
	// connection count, and the partitioned engine's worker count.
	// Results are byte-identical at any value; it defaults to nproc.
	Workers int

	FigsRequests   int // per simulation of the figure sections
	SatRequests    int // per near-saturation design point
	RAIDRequests   int // per Figure 8 array simulation
	LPRAIDRequests int // per partitioned-array run
	LPRAIDDrives   int

	ServeQueries      int // per pass; every tenth is a miss
	ServeHitConfigs   int // distinct configs warmed during setup
	ServeHitRequests  int // replay length of a warmed config
	ServeMissRequests int // replay length of a never-seen config

	IngestRequests int // per trace file

	Setups int // setups per run; setup_s is their median
}

// The batch workloads' set-up is a warm-up pass at 1/warmDiv of the
// pass scale on warmSeed. Warm-ups only exercise the code; a fixed seed
// keeps their cost, and so setup_s, independent of the run's seed.
const (
	warmDiv  = 8
	warmSeed = 1
)

func defaultScale() scale {
	return scale{
		Workers:           runtime.NumCPU(),
		FigsRequests:      8000,
		SatRequests:       30000,
		RAIDRequests:      8000,
		LPRAIDRequests:    4000,
		LPRAIDDrives:      64,
		ServeQueries:      100,
		ServeHitConfigs:   16,
		ServeHitRequests:  10000,
		ServeMissRequests: 20000,
		IngestRequests:    100000,
		Setups:            5,
	}
}

// A benchWorkload is one set of inputs the benchmark runs. setup prepares
// what every pass reuses and may run several times, each call replacing
// the last one's state; pass runs the measured unit of work once, on
// inputs derived from seed: through the experiments drivers users call
// when c is nil, through the traced rebuilds when it is not.
type benchWorkload interface {
	setup(seed int64) error
	pass(seed int64, c *collector) (*passOut, error)
	close() error
}

var workloads = map[string]func(sc scale, workdir string) benchWorkload{
	"figs":       func(sc scale, _ string) benchWorkload { return &figs{sc: sc} },
	"saturation": func(sc scale, _ string) benchWorkload { return &saturation{sc: sc} },
	"raid":       func(sc scale, _ string) benchWorkload { return &raidWL{sc: sc} },
	"serve":      func(sc scale, _ string) benchWorkload { return &serveWL{sc: sc} },
	"ingest":     func(sc scale, dir string) benchWorkload { return &ingest{sc: sc, dir: dir} },
}

// op is one user-level call: a driver call, one file pass, one query.
type op struct {
	name   string
	ms     float64
	failed bool
}

// passOut is what one pass produced.
type passOut struct {
	text    bytes.Buffer // canonical simulated output, checked by digest
	simReqs int64        // simulated requests completed
	ops     []op
	// layer holds per-layer values only the workload itself can measure
	// (the serve path's counters), keyed by metric name.
	layer map[string]float64
	// driver is the traced pass's tracer for work on the driver
	// goroutine (rendering, sequential driver calls).
	driver *tracer
	// untimedNs is time inside the pass that is not the measured work
	// (a traced serve pass restarting its server and checking answers).
	untimedNs int64
}

func newPassOut(c *collector) *passOut {
	out := &passOut{layer: map[string]float64{}}
	if c != nil {
		out.driver = c.tracer("driver")
	}
	return out
}

func (o *passOut) digest() string {
	sum := sha256.Sum256(o.text.Bytes())
	return hex.EncodeToString(sum[:])
}

// call times one user-level call as an op.
func (o *passOut) call(name string, fn func() error) error {
	start := nanotime()
	err := fn()
	o.ops = append(o.ops, op{name: name, ms: float64(nanotime()-start) / 1e6, failed: err != nil})
	return err
}

// render writes canonical output; in a traced pass it is an
// experiments.render span on the driver tracer.
func (o *passOut) render(fn func(w io.Writer)) {
	if o.driver == nil {
		fn(&o.text)
		return
	}
	sp := o.driver.begin(kRender)
	fn(&o.text)
	o.driver.end(kRender, sp)
}

// runs checks that every run completed all requests and counts them.
func (o *passOut) runs(requests int, runs ...experiments.Run) error {
	for _, r := range runs {
		if r.Completed != uint64(requests) {
			return fmt.Errorf("%s completed %d of %d requests", r.Label, r.Completed, requests)
		}
		o.simReqs += int64(r.Completed)
	}
	return nil
}

// passSeed derives pass k's input seed: pass 0 uses the run's seed
// itself, so its output is the one the golden digests pin.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return fleet.DeriveSeed(seed, k)
}

// figs is the single-drive sections of `idpbench -exp all` (Figures
// 2-7): for each Table-2 workload, LimitStudy, Bottleneck,
// MultiActuator(4) and ReducedRPM, rendered by the experiments
// renderers in idpbench's order. Queues stay shallow, so the trace
// generator, the event heap and drive service dominate.
type figs struct{ sc scale }

func (f *figs) setup(int64) error {
	_, err := f.run(warmSeed, f.sc.FigsRequests/warmDiv, nil)
	return err
}

func (f *figs) pass(seed int64, c *collector) (*passOut, error) {
	return f.run(seed, f.sc.FigsRequests, c)
}

func (f *figs) close() error { return nil }

func (f *figs) run(seed int64, requests int, c *collector) (*passOut, error) {
	out := newPassOut(c)
	cfg := experiments.Config{Requests: requests, Seed: seed, Parallelism: f.sc.Workers}
	specs := trace.Workloads()
	for _, w := range specs {
		var ls *experiments.LimitStudyResult
		if err := out.call("limitstudy", func() (err error) { ls, err = doLimitStudy(c, w, cfg); return }); err != nil {
			return out, err
		}
		if err := out.runs(requests, ls.MD, ls.HCSD); err != nil {
			return out, err
		}
		out.render(func(o io.Writer) {
			experiments.WriteCDFTable(o, fmt.Sprintf("Figure 2 (%s): response-time CDF, MD vs HC-SD", w.Name),
				[]experiments.Run{ls.MD, ls.HCSD})
			fmt.Fprintln(o)
			experiments.WritePowerTable(o, fmt.Sprintf("Figure 3 (%s): average power, MD vs HC-SD", w.Name),
				[]experiments.Run{ls.MD, ls.HCSD})
			fmt.Fprintln(o)
		})
	}
	for _, w := range specs {
		var ls *experiments.LimitStudyResult
		var b *experiments.BottleneckResult
		if err := out.call("limitstudy", func() (err error) { ls, err = doLimitStudy(c, w, cfg); return }); err != nil {
			return out, err
		}
		if err := out.call("bottleneck", func() (err error) { b, err = doBottleneck(c, w, cfg); return }); err != nil {
			return out, err
		}
		runs := append([]experiments.Run{ls.HCSD}, b.Cases...)
		runs = append(runs, ls.MD)
		if err := out.runs(requests, runs...); err != nil {
			return out, err
		}
		out.render(func(o io.Writer) {
			experiments.WriteCDFTable(o, fmt.Sprintf("Figure 4 (%s): bottleneck analysis of HC-SD", w.Name), runs)
			fmt.Fprintln(o)
		})
	}
	for _, w := range specs {
		var ma *experiments.MultiActuatorResult
		if err := out.call("multiactuator", func() (err error) { ma, err = doMultiActuator(c, w, cfg); return }); err != nil {
			return out, err
		}
		runs := append(append([]experiments.Run{}, ma.Runs...), ma.MD)
		if err := out.runs(requests, runs...); err != nil {
			return out, err
		}
		// MultiActuator runs its own LimitStudy; its HC-SD half is not
		// returned, but it was simulated.
		out.simReqs += int64(requests)
		out.render(func(o io.Writer) {
			experiments.WriteCDFTable(o, fmt.Sprintf("Figure 5 (%s): response-time CDF, HC-SD-SA(n)", w.Name), runs)
			experiments.WritePDFTable(o, fmt.Sprintf("Figure 5 (%s): rotational-latency PDF", w.Name), ma.Runs)
			fmt.Fprintln(o)
		})
	}
	for _, w := range specs {
		var rr *experiments.ReducedRPMResult
		if err := out.call("reducedrpm", func() (err error) { rr, err = doReducedRPM(c, w, cfg); return }); err != nil {
			return out, err
		}
		if err := out.runs(requests, append([]experiments.Run{rr.HCSD, rr.MD}, rr.Runs...)...); err != nil {
			return out, err
		}
		out.render(func(o io.Writer) {
			experiments.WritePowerTable(o, fmt.Sprintf("Figure 6 (%s): average power of reduced-RPM designs", w.Name),
				append([]experiments.Run{rr.HCSD}, rr.Runs...))
			fmt.Fprintln(o)
			experiments.WriteCDFTable(o, fmt.Sprintf("Figure 7 (%s): reduced-RPM designs vs MD", w.Name),
				append(append([]experiments.Run{}, rr.Runs...), rr.MD))
			fmt.Fprintln(o)
		})
	}
	return out, nil
}

// extra measures the program's own span tracing (obs): the
// BenchmarkFleetSweep config, Websearch LimitStudy and Bottleneck, with
// Observe{Trace, Metrics} on against off, alternating three times.
func (f *figs) extra(seed int64) (map[string]float64, error) {
	var wall, alloc [2][]float64
	for round := 0; round < 3; round++ {
		for i, ob := range []experiments.Observe{{}, {Trace: true, Metrics: true}} {
			cfg := experiments.Config{Requests: f.sc.FigsRequests, Seed: seed, Parallelism: f.sc.Workers, Observe: ob}
			before := readHost()
			start := nanotime()
			if _, err := experiments.LimitStudy(trace.Websearch(), cfg); err != nil {
				return nil, err
			}
			if _, err := experiments.Bottleneck(trace.Websearch(), cfg); err != nil {
				return nil, err
			}
			wall[i] = append(wall[i], float64(nanotime()-start))
			alloc[i] = append(alloc[i], readHost().sub(before).allocBytes)
		}
	}
	return map[string]float64{
		"obs.traced_wall_ratio":  ratio(median(wall[1]), median(wall[0])),
		"obs.traced_alloc_ratio": ratio(median(alloc[1]), median(alloc[0])),
	}, nil
}

func doLimitStudy(c *collector, w trace.WorkloadSpec, cfg experiments.Config) (*experiments.LimitStudyResult, error) {
	if c == nil {
		return experiments.LimitStudy(w, cfg)
	}
	return limitStudy(c, w, cfg)
}

func doBottleneck(c *collector, w trace.WorkloadSpec, cfg experiments.Config) (*experiments.BottleneckResult, error) {
	if c == nil {
		return experiments.Bottleneck(w, cfg)
	}
	return bottleneck(c, w, cfg)
}

func doMultiActuator(c *collector, w trace.WorkloadSpec, cfg experiments.Config) (*experiments.MultiActuatorResult, error) {
	if c == nil {
		return experiments.MultiActuator(w, cfg, 4)
	}
	return multiActuator(c, w, cfg, 4)
}

func doReducedRPM(c *collector, w trace.WorkloadSpec, cfg experiments.Config) (*experiments.ReducedRPMResult, error) {
	if c == nil {
		return experiments.ReducedRPM(w, cfg)
	}
	return reducedRPM(c, w, cfg)
}

// saturationPoints are SA(n) what-if design points near saturation,
// where the SPTF dispatch scan over deep queues does most of the work.
// Each point's queue high-water mark stays under 100 and does not grow
// with the replay length (TPC-C at 4x would: its backlog diverges past
// about 60 000 requests, so it runs at 3.5x).
var saturationPoints = []experiments.WhatIfQuery{
	{Workload: "Financial", Actuators: 2, ArrivalScale: 2},
	{Workload: "Financial", Actuators: 4, ArrivalScale: 2},
	{Workload: "TPC-C", Actuators: 4, ArrivalScale: 3.5},
	{Workload: "Websearch", Actuators: 4, ArrivalScale: 3},
	{Workload: "TPC-H", Actuators: 4, ArrivalScale: 3},
}

// saturation fans experiments.RunWhatIf over the near-saturation design
// points through fleet.Run.
type saturation struct{ sc scale }

func (s *saturation) setup(int64) error {
	_, err := s.run(warmSeed, s.sc.SatRequests/warmDiv, nil)
	return err
}

func (s *saturation) pass(seed int64, c *collector) (*passOut, error) {
	return s.run(seed, s.sc.SatRequests, c)
}

func (s *saturation) close() error { return nil }

func (s *saturation) run(seed int64, requests int, c *collector) (*passOut, error) {
	out := newPassOut(c)
	ms := make([]float64, len(saturationPoints))
	jobs := make([]fleet.Job[*experiments.WhatIfRun], len(saturationPoints))
	for i, q := range saturationPoints {
		i, q := i, q
		q.Requests = requests
		q.Seed = seed
		jobs[i] = fleet.Job[*experiments.WhatIfRun]{Name: q.Label(), Run: func(ctx context.Context, _ int64) (*experiments.WhatIfRun, error) {
			start := nanotime()
			defer func() { ms[i] = float64(nanotime()-start) / 1e6 }()
			if c == nil {
				return experiments.RunWhatIf(ctx, q, seed, experiments.Observe{})
			}
			return job(c, q.Label(), func(t *tracer) (*experiments.WhatIfRun, error) { return whatIf(c, t, q, seed) })
		}}
	}
	opts := fleet.Options{Parallelism: s.sc.Workers, BaseSeed: seed}
	var res []*experiments.WhatIfRun
	var err error
	if c == nil {
		res, err = fleet.Run(jobs, opts)
	} else {
		res, err = runJobs(c, jobs, opts)
	}
	for _, m := range ms {
		out.ops = append(out.ops, op{name: "whatif", ms: m, failed: err != nil})
	}
	if err != nil {
		return out, err
	}
	runs := make([]experiments.Run, len(res))
	for i, r := range res {
		runs[i] = r.Run
	}
	if err := out.runs(requests, runs...); err != nil {
		return out, err
	}
	out.render(func(o io.Writer) {
		experiments.WriteSummaryTable(o, "What-if near saturation: response summary", runs)
		experiments.WriteCDFTable(o, "What-if near saturation: response-time CDF", runs)
		experiments.WritePowerTable(o, "What-if near saturation: average power", runs)
		for _, r := range res {
			fmt.Fprintf(o, "%-16s arms %d/%d\n", r.Label, r.HealthyArms, r.TotalArms)
		}
	})
	return out, nil
}

// raidDiskCounts is Figure 8's x-axis without its 1-drive column. With
// one member, the RAID-0 layout rounds the study's one-drive dataset
// down to whole stripes while the workload generator addresses all of
// it, so a request in the last partial stripe panics (pass 3 of seed
// 209 draws one). Two members or more hold the whole dataset.
var raidDiskCounts = []int{2, 4, 8, 16}

// raidWL runs both RAID models: Figure 8 on raid.Array (one event loop
// per point, fanned through the fleet) and the 64-drive partitioned
// array on the conservative parallel engine, healthy and with a member
// death and rebuild. It is the only workload that exercises the raid
// fan-out, par windows and barriers, and bus links.
type raidWL struct{ sc scale }

func (r *raidWL) setup(int64) error {
	// The warm-up leaves out the degraded run, whose rebuild costs the
	// same at any request count.
	_, err := r.run(warmSeed, r.sc.RAIDRequests/warmDiv, r.sc.LPRAIDRequests/warmDiv, false, nil)
	return err
}

func (r *raidWL) pass(seed int64, c *collector) (*passOut, error) {
	return r.run(seed, r.sc.RAIDRequests, r.sc.LPRAIDRequests, true, c)
}

func (r *raidWL) close() error { return nil }

func (r *raidWL) run(seed int64, requests, lpRequests int, degraded bool, c *collector) (*passOut, error) {
	out := newPassOut(c)
	cfg := experiments.Config{Requests: requests, Seed: seed, Parallelism: r.sc.Workers}
	var rs *experiments.RAIDStudyResult
	err := out.call("raidstudy", func() (err error) {
		if c == nil {
			rs, err = experiments.RunRAIDStudy(cfg, experiments.RAIDStudyOpts{DiskCounts: raidDiskCounts})
		} else {
			rs, err = raidStudy(c, cfg)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	want := len(rs.DiskCounts) * len(rs.Families) * len(workload.Intensities())
	if len(rs.Points) != want {
		return out, fmt.Errorf("raid study produced %d of %d points", len(rs.Points), want)
	}
	out.simReqs += int64(len(rs.Points) * requests)
	out.render(func(o io.Writer) { experiments.WriteRAIDStudy(o, rs); fmt.Fprintln(o) })

	lpCfg := experiments.Config{Requests: lpRequests, Seed: seed}
	modes := []bool{false}
	if degraded {
		modes = append(modes, true)
	}
	for _, deg := range modes {
		var lr *experiments.LPRAIDResult
		err := out.call("lpraid", func() (err error) { lr, err = r.lpraid(c, lpCfg, r.sc.Workers, deg); return err })
		if err != nil {
			return out, err
		}
		if lr.Resp.Count() != lpRequests {
			return out, fmt.Errorf("lpraid completed %d of %d requests", lr.Resp.Count(), lpRequests)
		}
		out.simReqs += int64(lpRequests)
		out.render(func(o io.Writer) { experiments.WriteLPRAID(o, lr); fmt.Fprintln(o) })
	}
	return out, nil
}

func (r *raidWL) lpraid(c *collector, cfg experiments.Config, workers int, degraded bool) (*experiments.LPRAIDResult, error) {
	if c == nil {
		return experiments.LPRAID(cfg, experiments.LPRAIDOpts{Drives: r.sc.LPRAIDDrives, Workers: workers, Degraded: degraded})
	}
	name := "lpraid"
	if degraded {
		name = "lpraid-degraded"
	}
	return job(c, name, func(t *tracer) (*experiments.LPRAIDResult, error) {
		return lpraid(c, t, cfg, r.sc.LPRAIDDrives, workers, degraded)
	})
}

// extra measures the partitioned engine's speedup: both LPRAID runs at
// one worker against Workers workers.
func (r *raidWL) extra(seed int64) (map[string]float64, error) {
	cfg := experiments.Config{Requests: r.sc.LPRAIDRequests, Seed: seed}
	var wall [2]float64
	for i, workers := range []int{1, r.sc.Workers} {
		start := nanotime()
		for _, deg := range []bool{false, true} {
			if _, err := r.lpraid(nil, cfg, workers, deg); err != nil {
				return nil, err
			}
		}
		wall[i] = float64(nanotime() - start)
	}
	return map[string]float64{"par.speedup": ratio(wall[0], wall[1])}, nil
}
