package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// kind names one span type: a call across one layer boundary. Spans are
// recorded only by the wrappers below, which sit around each layer's
// public interface (simkit.Scheduler, device.Device, trace.Stream), so
// the simulator itself carries no tracing code.
type kind uint8

const (
	kNone      kind = iota // the parent of a root span
	kJob                   // one simulation job, or one sequential driver step
	kRun                   // simkit Runner.Run on the sequential engine
	kParRun                // Runner.Run on the partitioned engine
	kReplay                // arrival callbacks scheduled by the replay driver
	kReplayEnd             // completion callbacks into the replay driver
	kAt                    // At/After on a traced scheduler: the event-heap push
	kGen                   // trace.Generator.Next
	kWorkload              // workload.Generator.Next
	kReadSPC               // trace.Reader.Next, one kind per format
	kReadMSR
	kReadBlkparse
	kReadNative
	kAnalyze    // trace.AnalyzeStream
	kDiskSubmit // disk.Drive.Submit
	kDiskEvent  // events a disk.Drive scheduled
	kCoreSubmit // core.ParallelDrive.Submit
	kCoreEvent  // events a core.ParallelDrive scheduled
	kRaidSubmit // raid.Array / raid.Partitioned / raid.RouteByDisk Submit
	kRaidEnd    // member completion callbacks into the array controller
	kRender     // experiments.Write* renderers
	nKinds
)

var kindNames = [nKinds]string{
	kNone: "-", kJob: "job", kRun: "simkit.run", kParRun: "par.run",
	kReplay: "replay.arrival", kReplayEnd: "replay.done", kAt: "simkit.at",
	kGen: "trace.gen", kWorkload: "workload.gen",
	kReadSPC: "trace.read.spc", kReadMSR: "trace.read.msr",
	kReadBlkparse: "trace.read.blkparse", kReadNative: "trace.read.native",
	kAnalyze: "trace.analyze", kDiskSubmit: "disk.submit", kDiskEvent: "disk.event",
	kCoreSubmit: "core.submit", kCoreEvent: "core.event",
	kRaidSubmit: "raid.submit", kRaidEnd: "raid.done", kRender: "experiments.render",
}

// readKind maps a trace format to its reader span kind.
func readKind(f trace.Format) kind {
	switch f {
	case trace.FormatSPC:
		return kReadSPC
	case trace.FormatMSR:
		return kReadMSR
	case trace.FormatBlkparse:
		return kReadBlkparse
	}
	return kReadNative
}

// recordReqs is how many requests of each simulation keep full span
// records (start, end, parent, request id); every later span only feeds
// the aggregates.
const recordReqs = 1000

// epoch anchors the monotonic clock every span reads.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// agg is the running count and total duration of one (span, parent)
// pair.
type agg struct{ n, ns int64 }

// rec is one full span record.
type rec struct {
	req          uint32
	kind, parent kind
	start, end   int64
}

// span is an open span: what end needs to close it.
type span struct {
	parent kind
	req    uint32
	start  int64
}

// tracer accumulates the spans of one simulation, or of one logical
// process of a partitioned simulation. Its aggregates are preallocated
// per (span, parent) pair. A tracer is only ever used by the goroutine
// running its simulation (or its LP's window), so it needs no locking;
// tracers are merged after the run that owns them returns.
type tracer struct {
	name    string
	agg     [nKinds][nKinds]agg
	cur     kind   // the innermost open span
	req     uint32 // causal request id of the running code, 0 = none
	nextReq uint32
	recs    []rec // nil when this simulation keeps no records
}

func newTracer(name string, record bool) *tracer {
	t := &tracer{name: name}
	if record {
		t.recs = make([]rec, 0, 16*recordReqs)
	}
	return t
}

func (t *tracer) begin(k kind) span {
	s := span{parent: t.cur, req: t.req, start: nanotime()}
	t.cur = k
	return s
}

func (t *tracer) end(k kind, s span) {
	now := nanotime()
	a := &t.agg[k][s.parent]
	a.n++
	a.ns += now - s.start
	t.cur = s.parent
	if t.recs != nil && s.req != 0 && s.req <= recordReqs {
		t.recs = append(t.recs, rec{req: s.req, kind: k, parent: s.parent, start: s.start, end: now})
	}
}

// schedWrap is a traced simkit.Scheduler: every At/After is a kAt span,
// and every event scheduled through it runs inside an ev span carrying
// the request id that was current when it was scheduled.
type schedWrap struct {
	inner simkit.Scheduler
	t     *tracer
	ev    kind
}

func (s *schedWrap) Now() float64 { return s.inner.Now() }

func (s *schedWrap) At(at float64, fn simkit.Event) {
	sp := s.t.begin(kAt)
	s.inner.At(at, s.wrap(fn))
	s.t.end(kAt, sp)
}

func (s *schedWrap) After(d float64, fn simkit.Event) {
	sp := s.t.begin(kAt)
	s.inner.After(d, s.wrap(fn))
	s.t.end(kAt, sp)
}

func (s *schedWrap) wrap(fn simkit.Event) simkit.Event {
	t, k, req := s.t, s.ev, s.t.req
	return func() {
		outer := t.req
		t.req = req
		sp := t.begin(k)
		fn()
		t.end(k, sp)
		t.req = outer
	}
}

// runnerWrap is a traced simkit.Runner: the replay driver's own events
// go through the embedded schedWrap, and Run is one span of kind run.
type runnerWrap struct {
	schedWrap
	inner  simkit.Runner
	run    kind
	lastNs int64 // duration of the latest Run
}

func traceRunner(r simkit.Runner, t *tracer, run kind) *runnerWrap {
	return &runnerWrap{schedWrap: schedWrap{inner: r, t: t, ev: kReplay}, inner: r, run: run}
}

func (r *runnerWrap) Run() {
	sp := r.t.begin(r.run)
	r.inner.Run()
	r.t.end(r.run, sp)
	r.lastNs = nanotime() - sp.start
}

// devWrap is a traced device.Device. Submit is one span of kind submit;
// the caller's completion callback runs inside a span of kind done, so
// it is charged to the caller, not the device. The top device of a
// simulation numbers requests in submission order; the ids then travel
// with every event scheduled on their behalf.
type devWrap struct {
	inner        device.Device
	t            *tracer
	submit, done kind
	top          bool
}

func (d *devWrap) Submit(r trace.Request, done device.Done) {
	if d.top {
		d.t.nextReq++
		d.t.req = d.t.nextReq
	}
	if done != nil {
		done = d.wrapDone(done)
	}
	sp := d.t.begin(d.submit)
	d.inner.Submit(r, done)
	d.t.end(d.submit, sp)
}

func (d *devWrap) wrapDone(done device.Done) device.Done {
	t, k, req := d.t, d.done, d.t.req
	return func(at float64) {
		outer := t.req
		t.req = req
		sp := t.begin(k)
		done(at)
		t.end(k, sp)
		t.req = outer
	}
}

func (d *devWrap) Power(elapsedMs float64) power.Breakdown { return d.inner.Power(elapsedMs) }
func (d *devWrap) Capacity() int64                         { return d.inner.Capacity() }

// Snapshot forwards to the wrapped device, so arrays that roll members
// up into their own snapshot see through the wrapper.
func (d *devWrap) Snapshot() obs.Snapshot {
	if in, ok := d.inner.(device.Instrumented); ok {
		return in.Snapshot()
	}
	return obs.Snapshot{}
}

// streamWrap is a traced trace.Stream: each Next is one span of kind k.
type streamWrap struct {
	inner trace.Stream
	t     *tracer
	k     kind
}

func (s *streamWrap) Next() (trace.Request, bool) {
	sp := s.t.begin(s.k)
	r, ok := s.inner.Next()
	s.t.end(s.k, sp)
	return r, ok
}

// Err forwards the wrapped stream's terminal error (see trace.Err).
func (s *streamWrap) Err() error { return trace.Err(s.inner) }

// parRun is one run of the partitioned engine: the controller tracer's
// par.run span covers its wall time on the calling goroutine, and the
// member-LP tracers hold everything that ran on the other LPs.
type parRun struct {
	workers int
	wallNs  int64
	ctrl    *tracer
	members []*tracer

	windows, busyLPs, fired, reqs uint64
}

// simTotals are the counters the simulations themselves keep, read
// after each run: engine events and heap high-water marks, drive queue
// high-water marks and buffer hits.
type simTotals struct {
	seqFired, seqReqs            uint64 // sequential engines
	maxPending                   int
	queueMax                     int
	diskSubmitted, diskCacheHits uint64
}

// collector gathers one traced pass: its tracers (registered from fleet
// workers, hence the lock), its partitioned runs, and its fan-outs.
type collector struct {
	mu      sync.Mutex
	tracers []*tracer // simulation and driver tracers; LP tracers live in parRuns
	parRuns []parRun
	sims    simTotals
	recSims int // simulations that still get full span records

	// Fan-out accounting, recorded on the driver goroutine.
	fleetWallNs int64
	jobMs       []float64
	jobNs       int64
}

// maxRecordedSims bounds how many simulations of a traced run keep full
// span records, which bounds their memory (about 0.4 MB each) and the
// size of the records file.
const maxRecordedSims = 32

func newCollector(recordSims int) *collector {
	return &collector{recSims: recordSims}
}

// tracer creates and registers the tracer of one simulation.
func (c *collector) tracer(name string) *tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	record := c.recSims > 0
	if record {
		c.recSims--
	}
	t := newTracer(name, record)
	c.tracers = append(c.tracers, t)
	return t
}

func (c *collector) addParRun(r parRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parRuns = append(c.parRuns, r)
}

// noteEngine records one sequential engine's counters after its run.
func (c *collector) noteEngine(fired uint64, maxPending int, reqs uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sims.seqFired += fired
	c.sims.seqReqs += reqs
	c.sims.maxPending = max(c.sims.maxPending, maxPending)
}

// noteDevice records one drive's queue high-water mark and, for
// conventional drives, its buffer hits.
func (c *collector) noteDevice(d device.Instrumented) {
	s := d.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sims.queueMax = max(c.sims.queueMax, s.Queue.Max)
	if s.Kind == "disk" {
		c.sims.diskSubmitted += s.Submitted
		c.sims.diskCacheHits += s.CacheHits
	}
}

// spanCost is the calibrated cost of an empty span: outer is what it
// adds to its parent's measured time, inner the part of that inside its
// own measured interval.
type spanCost struct{ outer, inner float64 }

// calibrateSpan measures an empty span, best of five rounds.
func calibrateSpan() spanCost {
	const n = 200000
	var best spanCost
	for round := 0; round < 5; round++ {
		t := newTracer("calibrate", false)
		start := nanotime()
		for i := 0; i < n; i++ {
			sp := t.begin(kAt)
			t.end(kAt, sp)
		}
		c := spanCost{
			outer: float64(nanotime()-start) / n,
			inner: float64(t.agg[kAt][kNone].ns) / n,
		}
		if round == 0 || c.outer < best.outer {
			best = c
		}
	}
	return best
}

// writeRecords writes every tracer's full span records as CSV: one row
// per span of the first recordReqs requests of each recorded
// simulation, times in ns since the benchmark started.
func writeRecords(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "sim,req,span,parent,start_ns,end_ns")
	for _, t := range tracers {
		for _, r := range t.recs {
			fmt.Fprintf(w, "%s,%d,%s,%s,%d,%d\n", t.name, r.req, kindNames[r.kind], kindNames[r.parent], r.start, r.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
