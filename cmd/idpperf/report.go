package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the simulator sees, all host-side and
// measured untraced. Every workload reports every one; the README
// defines each per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
}

// layerMetrics are the traced run's per-layer numbers. Every workload
// reports every one; a layer the workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"experiments.limitstudy_s", "s"},
	{"experiments.bottleneck_s", "s"},
	{"experiments.multiactuator_s", "s"},
	{"experiments.reducedrpm_s", "s"},
	{"experiments.raidstudy_s", "s"},
	{"experiments.lpraid_s", "s"},
	{"experiments.whatif_ms_p50", "ms"},
	{"experiments.whatif_ms_max", "ms"},
	{"experiments.replay_ns_per_req", "ns"},
	{"fleet.jobs", "count"},
	{"fleet.job_ms_p50", "ms"},
	{"fleet.job_ms_max", "ms"},
	{"fleet.idle_frac", "ratio"},
	{"trace.gen_ns_per_req", "ns"},
	{"trace.read_ns_per_req.spc", "ns"},
	{"trace.read_ns_per_req.msr", "ns"},
	{"trace.read_ns_per_req.blkparse", "ns"},
	{"trace.read_ns_per_req.native", "ns"},
	{"trace.analyze_ns_per_req", "ns"},
	{"workload.gen_ns_per_req", "ns"},
	{"simkit.events_per_req", "count"},
	{"simkit.self_ns_per_event", "ns"},
	{"simkit.max_pending", "count"},
	{"disk.submit_ns", "ns"},
	{"disk.event_self_ns", "ns"},
	{"disk.cache_hit_ratio", "ratio"},
	{"core.submit_ns", "ns"},
	{"core.event_self_ns", "ns"},
	{"core.host_us_per_req", "us"},
	{"sched.queue_max", "count"},
	{"raid.member_submits_per_req", "count"},
	{"raid.array_submit_ns", "ns"},
	{"par.windows_per_req", "count"},
	{"par.busy_lps_per_window", "count"},
	{"par.sync_ns_per_window", "ns"},
	{"par.speedup", "ratio"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_p99", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.miss_ms_max", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.computed", "count"},
	{"serve.collapsed", "count"},
	{"serve.shed", "count"},
	{"serve.key_us", "us"},
	{"obs.traced_wall_ratio", "ratio"},
	{"obs.traced_alloc_ratio", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_b_per_req", "B"},
	{"go.mallocs_per_req", "count"},
	{"bench.span_ns", "ns"},
	{"bench.traced_wall_ratio", "ratio"},
	{"bench.residual_frac", "ratio"},
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func set(res *result, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			res.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("idpperf: undeclared metric " + name)
}

// endToEnd fills the end-to-end metrics from the untraced passes:
// medians over passes, and op latencies over every op of the run. Times
// are scaled to reference seconds by toRef (see ref.go).
func endToEnd(res *result, setups []float64, passes []pass, rss, toRef float64) {
	var wall, rate, alloc, ops []float64
	for _, p := range passes {
		wall = append(wall, p.wallS)
		rate = append(rate, float64(p.out.simReqs)/p.wallS)
		alloc = append(alloc, p.host.allocBytes/1e6)
		for _, op := range p.out.ops {
			ops = append(ops, op.ms)
		}
	}
	e := func(name string, v float64) { set(res, e2eMetrics, name, v) }
	e("setup_s", median(setups)*toRef)
	e("wall_s", median(wall)*toRef)
	e("sim_req_per_s", median(rate)/toRef)
	e("alloc_mb", median(alloc))
	e("peak_rss_mb", rss/1e6)
	e("op_p50_ms", quantile(ops, 0.50)*toRef)
	e("op_p99_ms", quantile(ops, 0.99)*toRef)
}

// layerReport is the merged span data of a traced run.
type layerReport struct {
	total, count  [nKinds]float64 // per span kind
	child, childN [nKinds]float64 // direct children's total and count
	agg           [nKinds][nKinds]agg
	cost          spanCost
	sims          simTotals
	par           struct{ extraNs, windows, busy, fired, reqs, sync float64 }
	busyNs        float64 // thread time the traced passes kept busy
	fleetWallNs   float64
	jobNs         float64
	jobMs         []float64
	workers       int
	passes        int
	layer         map[string]float64 // workload-specific values, summed over passes
	tracedWallNs  float64
}

func newLayerReport(cols []*collector, traced []pass, cost spanCost, workers int) *layerReport {
	r := &layerReport{cost: cost, layer: map[string]float64{}, passes: len(cols), workers: workers}
	add := func(t *tracer) {
		for k := range t.agg {
			for p := range t.agg[k] {
				a := t.agg[k][p]
				r.agg[k][p].n += a.n
				r.agg[k][p].ns += a.ns
			}
		}
	}
	for i, c := range cols {
		for _, t := range c.tracers {
			add(t)
		}
		for _, pr := range c.parRuns {
			for _, m := range pr.members {
				add(m)
			}
			// The LP callbacks: the controller's children of par.run and
			// every member root span.
			var cb, cbN float64
			for k := range pr.ctrl.agg {
				cb += float64(pr.ctrl.agg[k][kParRun].ns)
				cbN += float64(pr.ctrl.agg[k][kParRun].n)
			}
			for _, m := range pr.members {
				for k := range m.agg {
					cb += float64(m.agg[k][kNone].ns)
					cbN += float64(m.agg[k][kNone].n)
				}
			}
			w := float64(pr.workers)
			d := float64(pr.wallNs)
			r.par.extraNs += (w - 1) * d
			r.par.sync += w*d - cb - (cost.outer-cost.inner)*cbN
			r.par.windows += float64(pr.windows)
			r.par.busy += float64(pr.busyLPs)
			r.par.fired += float64(pr.fired)
			r.par.reqs += float64(pr.reqs)
		}
		r.sims.seqFired += c.sims.seqFired
		r.sims.seqReqs += c.sims.seqReqs
		r.sims.maxPending = max(r.sims.maxPending, c.sims.maxPending)
		r.sims.queueMax = max(r.sims.queueMax, c.sims.queueMax)
		r.sims.diskSubmitted += c.sims.diskSubmitted
		r.sims.diskCacheHits += c.sims.diskCacheHits
		r.fleetWallNs += float64(c.fleetWallNs)
		r.jobNs += float64(c.jobNs)
		r.jobMs = append(r.jobMs, c.jobMs...)

		p := traced[i]
		wallNs := p.wallS * 1e9
		r.tracedWallNs += wallNs
		for name, v := range p.out.layer {
			r.layer[name] += v
		}
		r.busyNs += wallNs - float64(c.fleetWallNs) + float64(c.jobNs)
	}
	for k := kind(0); k < nKinds; k++ {
		for p := kind(0); p < nKinds; p++ {
			a := r.agg[k][p]
			r.total[k] += float64(a.ns)
			r.count[k] += float64(a.n)
			r.child[p] += float64(a.ns)
			r.childN[p] += float64(a.n)
		}
	}
	r.busyNs += r.par.extraNs
	return r
}

// self is a span kind's own time: its total less its children's, less
// the calibrated span cost its children add outside their own
// intervals and the part of its own cost inside its interval.
func (r *layerReport) self(ks ...kind) float64 {
	var s float64
	for _, k := range ks {
		over := (r.cost.outer-r.cost.inner)*r.childN[k] + r.cost.inner*r.count[k]
		s += math.Max(0, r.total[k]-r.child[k]-over)
	}
	return s
}

func (r *layerReport) n(ks ...kind) float64 {
	var n float64
	for _, k := range ks {
		n += r.count[k]
	}
	return n
}

// layerSelf splits the traced run's busy thread time among the named
// layers. The par layer's share is the partitioned runs' worker
// capacity not spent in LP callbacks: barriers, merges, idle workers
// and the controller's Send-delivered events, which no wrapper reaches.
func (r *layerReport) layerSelf() []struct {
	name string
	ns   float64
} {
	return []struct {
		name string
		ns   float64
	}{
		{"simkit", r.self(kRun, kAt)},
		{"par", math.Max(0, r.par.sync)},
		{"experiments", r.self(kReplay, kReplayEnd, kRender)},
		{"trace", r.self(kGen, kReadSPC, kReadMSR, kReadBlkparse, kReadNative, kAnalyze)},
		{"workload", r.self(kWorkload)},
		{"disk", r.self(kDiskSubmit, kDiskEvent)},
		{"core", r.self(kCoreSubmit, kCoreEvent)},
		{"raid", r.self(kRaidSubmit, kRaidEnd)},
	}
}

// perLayer fills the per-layer metrics: span-derived ones from the
// traced passes, driver timings and runtime counters from the untraced
// passes of the same run.
func perLayer(res *result, r *layerReport, untraced []pass, extra map[string]float64) {
	l := func(name string, v float64) { set(res, layerMetrics, name, v) }
	for _, d := range layerMetrics {
		l(d.name, 0)
	}

	calls := map[string][]float64{}
	var u hostDelta
	var uWall, uSim float64
	for _, p := range untraced {
		for _, op := range p.out.ops {
			calls[op.name] = append(calls[op.name], op.ms)
		}
		u.allocBytes += p.host.allocBytes
		u.mallocs += p.host.mallocs
		u.gcCPU += p.host.gcCPU
		u.totalCPU += p.host.totalCPU
		uWall += p.wallS * 1e9
		uSim += float64(p.out.simReqs)
	}
	meanS := func(name string) float64 {
		var s float64
		for _, ms := range calls[name] {
			s += ms
		}
		return ratio(s/1e3, float64(len(calls[name])))
	}
	l("experiments.limitstudy_s", meanS("limitstudy"))
	l("experiments.bottleneck_s", meanS("bottleneck"))
	l("experiments.multiactuator_s", meanS("multiactuator"))
	l("experiments.reducedrpm_s", meanS("reducedrpm"))
	l("experiments.raidstudy_s", meanS("raidstudy"))
	l("experiments.lpraid_s", meanS("lpraid"))
	l("experiments.whatif_ms_p50", quantile(calls["whatif"], 0.5))
	l("experiments.whatif_ms_max", quantile(calls["whatif"], 1))
	arrivals := r.n(kReplay)
	l("experiments.replay_ns_per_req", ratio(r.self(kReplay, kReplayEnd), arrivals))

	passes := float64(r.passes)
	l("fleet.jobs", float64(len(r.jobMs))/passes)
	l("fleet.job_ms_p50", quantile(r.jobMs, 0.5))
	l("fleet.job_ms_max", quantile(r.jobMs, 1))
	if r.fleetWallNs > 0 {
		l("fleet.idle_frac", 1-r.jobNs/(r.fleetWallNs*float64(r.workers)))
	}

	perReq := func(k kind) float64 { return ratio(r.self(k), r.n(k)) }
	l("trace.gen_ns_per_req", perReq(kGen))
	l("trace.read_ns_per_req.spc", perReq(kReadSPC))
	l("trace.read_ns_per_req.msr", perReq(kReadMSR))
	l("trace.read_ns_per_req.blkparse", perReq(kReadBlkparse))
	l("trace.read_ns_per_req.native", perReq(kReadNative))
	var profiled float64
	for _, k := range []kind{kReadSPC, kReadMSR, kReadBlkparse, kReadNative} {
		profiled += float64(r.agg[k][kAnalyze].n)
	}
	l("trace.analyze_ns_per_req", ratio(r.self(kAnalyze), profiled))
	l("workload.gen_ns_per_req", perReq(kWorkload))

	l("simkit.events_per_req", ratio(float64(r.sims.seqFired)+r.par.fired, float64(r.sims.seqReqs)+r.par.reqs))
	l("simkit.self_ns_per_event", ratio(r.self(kRun, kAt), float64(r.sims.seqFired)))
	l("simkit.max_pending", float64(r.sims.maxPending))

	l("disk.submit_ns", perReq(kDiskSubmit))
	l("disk.event_self_ns", perReq(kDiskEvent))
	l("disk.cache_hit_ratio", ratio(float64(r.sims.diskCacheHits), float64(r.sims.diskSubmitted)))
	l("core.submit_ns", perReq(kCoreSubmit))
	l("core.event_self_ns", perReq(kCoreEvent))
	l("core.host_us_per_req", ratio(r.self(kCoreSubmit, kCoreEvent), r.n(kCoreSubmit))/1e3)
	l("sched.queue_max", float64(r.sims.queueMax))

	// Member submits are every drive submit not made by the replay
	// driver itself.
	topSubmits := float64(r.agg[kDiskSubmit][kReplay].n + r.agg[kCoreSubmit][kReplay].n)
	l("raid.member_submits_per_req", ratio(r.n(kDiskSubmit, kCoreSubmit)-topSubmits, r.n(kRaidSubmit)))
	l("raid.array_submit_ns", perReq(kRaidSubmit))

	l("par.windows_per_req", ratio(r.par.windows, r.par.reqs))
	l("par.busy_lps_per_window", ratio(r.par.busy, r.par.windows))
	l("par.sync_ns_per_window", ratio(r.par.sync, r.par.windows))

	var hit, miss []float64
	for _, p := range untraced {
		for _, op := range p.out.ops {
			switch op.name {
			case "hit":
				hit = append(hit, op.ms)
			case "miss":
				miss = append(miss, op.ms)
			}
		}
	}
	l("serve.hit_ms_p50", quantile(hit, 0.50))
	l("serve.hit_ms_p99", quantile(hit, 0.99))
	l("serve.miss_ms_p50", quantile(miss, 0.50))
	l("serve.miss_ms_max", quantile(miss, 1))
	l("serve.hit_ratio", ratio(r.layer["serve.cache_hits"], r.layer["serve.queries"]))
	l("serve.computed", r.layer["serve.computed"]/passes)
	l("serve.collapsed", r.layer["serve.collapsed"]/passes)
	l("serve.shed", r.layer["serve.shed"]/passes)
	l("serve.key_us", r.layer["serve.key_ns"]/passes/1e3)

	l("go.gc_cpu_frac", ratio(u.gcCPU, u.totalCPU))
	l("go.alloc_b_per_req", ratio(u.allocBytes, uSim))
	l("go.mallocs_per_req", ratio(u.mallocs, uSim))

	l("bench.span_ns", r.cost.outer)
	l("bench.traced_wall_ratio", ratio(r.tracedWallNs, uWall))
	l("bench.residual_frac", r.residual())

	for name, v := range extra {
		l(name, v)
	}
}

// busy is the thread time to reconcile against: the traced passes'
// busy thread time less the calibrated cost of their spans, which layer
// self times exclude too. A serve pass's traced work is the rebuild of
// its never-seen queries, so there it is the rebuild jobs' time.
func (r *layerReport) busy() float64 {
	var spans float64
	for _, n := range r.count {
		spans += n
	}
	busy := r.busyNs
	if _, ok := r.layer["serve.miss_busy_ms"]; ok {
		busy = r.total[kJob]
	}
	return busy - r.cost.outer*spans
}

func (r *layerReport) attributed() float64 {
	var s float64
	for _, l := range r.layerSelf() {
		s += l.ns
	}
	return s
}

func (r *layerReport) residual() float64 {
	return ratio(r.busy()-r.attributed(), r.busy())
}

// reconcile prints the run's host-time ledger: every layer's self time
// against the busy thread time, and the residual nothing accounts for.
// A residual above 0.15 names the unmeasured work suspected of it.
func (r *layerReport) reconcile(w io.Writer, name string) {
	var parts []string
	for _, l := range r.layerSelf() {
		if l.ns > 0 {
			parts = append(parts, fmt.Sprintf("%s %.3f", l.name, l.ns/1e9))
		}
	}
	fmt.Fprintf(w, "idpperf: reconcile %s: layer self %.3f s of %.3f busy thread-s (traced wall %.3f s); residual_frac %.3f; layers [s]: %s\n",
		name, r.attributed()/1e9, r.busy()/1e9, r.tracedWallNs/1e9, r.residual(), strings.Join(parts, ", "))
	if ms, ok := r.layer["serve.miss_busy_ms"]; ok {
		fmt.Fprintf(w, "idpperf: serve miss path: never-seen queries took %.3f s at the clients, their rebuilt compute %.3f s; serve's own share %.3f\n",
			ms/1e3, r.attributed()/1e9, 1-r.attributed()/(ms*1e6))
	}
	if r.residual() <= 0.15 {
		return
	}
	suspect := "simulation set-up and result assembly inside jobs (device construction, sample statistics)"
	if jobSelf := r.self(kJob); r.busy()-r.attributed()-jobSelf > jobSelf {
		suspect = "the driver goroutine outside fan-outs (result merging, file opening)"
	}
	fmt.Fprintf(w, "idpperf: residual_frac %.3f exceeds 0.15; unmeasured layer suspected: %s\n", r.residual(), suspect)
}
