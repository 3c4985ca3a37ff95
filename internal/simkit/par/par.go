// Package par is a conservative-parallel partitioned discrete-event
// engine in the PARSIR tradition: a simulation is split into logical
// processes (LPs), each owning a private event queue and clock, and the
// LPs execute in synchronized time windows whose width is the minimum
// lookahead declared on any inter-LP channel.
//
// # Model
//
// Each LP is a full simkit event loop (it embeds a *simkit.Engine), so
// any device built against simkit.Scheduler runs on an LP unchanged.
// LPs may interact only through channels declared with Link, and every
// cross-LP event must be sent at least the channel's lookahead into the
// future. In a storage simulation the lookahead comes for free: the
// array interconnect has a minimum propagation latency (bus arbitration
// overhead plus wire time), so a controller event can never affect a
// drive sooner than that.
//
// # Determinism
//
// The engine is byte-deterministic by construction, at any worker
// count:
//
//   - Within a window [T, T+L) every LP fires only its own events, in
//     its local (at, seq) schedule order — the same total order the
//     sequential simkit.Engine guarantees.
//   - A send from an event at time t >= T arrives at t+lookahead >=
//     T+L, i.e. always in a later window, so nothing an LP does in a
//     window can affect another LP in the same window. Window execution
//     is therefore order-free across LPs and safe to run on goroutines.
//   - At each window barrier the buffered sends are merged in the
//     deterministic order (at, source LP, source send seq) and enqueued
//     into the destination LPs. Same-timestamp deliveries thus fire in
//     a reproducible order that no scheduler interleaving can perturb.
//
// Running with Workers=1 executes the identical window/merge algorithm
// on the calling goroutine; parallel runs are byte-identical to it
// (cross-checked by randomized schedules with deliberate cross-LP
// timestamp ties in par_test.go, the way simkit's heap_test.go
// cross-checks the 4-ary heap against a reference heap).
package par

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/obs"
	"repro/internal/simkit"
)

// envelope is one buffered cross-LP event: scheduled on the source LP,
// delivered into the destination LP's queue at the window barrier.
type envelope struct {
	at  float64
	src int
	seq uint64 // per-source send sequence, for the deterministic merge
	dst int
	fn  simkit.Event
}

// LP is one logical process: a private simkit event loop plus a mailbox
// for outbound cross-LP sends. It implements simkit.Scheduler, so
// devices attach to an LP exactly as they attach to an Engine.
type LP struct {
	id     int
	eng    *simkit.Engine
	parent *Engine

	// look[dst] is the declared lookahead of the channel lp → dst, zero
	// where none is declared (a declared lookahead is positive); it
	// reaches only as far as the highest linked destination.
	look []float64

	outbox  []envelope // sends buffered during the current window
	sendSeq uint64

	// spans buffers trace events emitted on this LP during the current
	// window (see WrapSink); flushed to their base sinks at the barrier.
	spans []spanEntry

	// ran is how many events the LP fired in the last pooled window,
	// written by whichever goroutine ran it and summed by the
	// coordinator after the window.
	ran uint64
}

// spanEntry is one buffered trace emission: the event plus the sink it
// is destined for, so one per-LP buffer preserves the interleaving of
// every emitter on the LP exactly.
type spanEntry struct {
	base obs.Sink
	ev   obs.Event
}

// lpSink is the WrapSink adapter: emissions append to the owning LP's
// span buffer, which only that LP's window execution touches.
type lpSink struct {
	lp   *LP
	base obs.Sink
}

func (s lpSink) Emit(ev obs.Event) {
	s.lp.spans = append(s.lp.spans, spanEntry{base: s.base, ev: ev})
}

// WrapSink adapts a trace sink for emission from this LP's events. A
// sink shared by devices on different LPs is a data race under a
// parallel window (and even a synchronized sink would record a
// scheduling-dependent interleaving); the wrapper buffers each LP's
// emissions locally — race-free by the same ownership partition that
// protects the event queues — and the engine flushes the buffers at
// every window barrier in LP order. Per-LP emission order is the firing
// order, and LP order is how a single worker executes a window, so the
// flushed stream is byte-identical at every worker count. A nil base
// returns nil, preserving the disabled-tracer convention.
func (lp *LP) WrapSink(base obs.Sink) obs.Sink {
	if base == nil {
		return nil
	}
	return lpSink{lp: lp, base: base}
}

var _ simkit.Scheduler = (*LP)(nil)

// ID reports the LP's index within its engine.
func (lp *LP) ID() int { return lp.id }

// Now reports the LP's local simulated time.
func (lp *LP) Now() float64 { return lp.eng.Now() }

// At schedules fn on this LP at absolute local time t.
func (lp *LP) At(t float64, fn simkit.Event) { lp.eng.At(t, fn) }

// After schedules fn on this LP d milliseconds from its local now.
func (lp *LP) After(d float64, fn simkit.Event) { lp.eng.After(d, fn) }

// Send schedules fn on LP dst at absolute time at. The channel
// (lp → dst) must have been declared with Link, and at must respect its
// lookahead: at >= Now + lookahead. Violating either panics — a
// too-early send is a modeling bug that would break the conservative
// window argument, not a condition to tolerate.
//
// Sends are buffered and delivered at the next window barrier, merged
// across sources in (at, source LP, source send seq) order.
func (lp *LP) Send(dst int, at float64, fn simkit.Event) {
	la := 0.0
	if dst >= 0 && dst < len(lp.look) {
		la = lp.look[dst]
	}
	if la <= 0 {
		panic(fmt.Sprintf("par: send %d->%d without a declared Link", lp.id, dst))
	}
	if min := lp.eng.Now() + la; at < min {
		panic(fmt.Sprintf("par: send %d->%d at %.6f violates lookahead %.6f (now %.6f)",
			lp.id, dst, at, la, lp.eng.Now()))
	}
	lp.sendSeq++
	lp.outbox = append(lp.outbox, envelope{at: at, src: lp.id, seq: lp.sendSeq, dst: dst, fn: fn})
}

// Options tunes the partitioned engine's execution.
type Options struct {
	// Workers is the number of goroutines executing LP windows.
	// 0 means runtime.GOMAXPROCS(0); 1 runs the identical window
	// algorithm on the calling goroutine with no concurrency at all.
	// The results are byte-identical at every worker count.
	Workers int
}

// Engine is a partitioned simulation: n logical processes advancing in
// conservative synchronized windows. The zero value is not usable;
// construct with New.
type Engine struct {
	lps     []*LP
	minLook float64 // min lookahead over all links (+Inf when none)
	workers int

	fired   uint64
	windows uint64
	busyLPs uint64
	wide    uint64

	// Per-window scratch, reused so a window allocates nothing once the
	// buffers reach their high-water marks: the LPs with work in the
	// current window, and the merged sends of the current barrier.
	work   []*LP
	merged []envelope
	next   []float64 // each LP's next event time, from nextAt

	// pool runs wide windows on workers-1 helper goroutines alongside
	// the goroutine that called Run. Built on the first pooled window;
	// its helpers run only inside Run/RunUntil.
	pool *pool
}

// New returns a partitioned engine with n logical processes and no
// channels. Declare inter-LP channels with Link before running.
func New(n int, opt Options) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("par: %d LPs", n))
	}
	w := opt.Workers
	if w <= 0 {
		//idplint:allow wallclock worker count only sets execution parallelism; the window protocol is byte-identical at any worker count (cross-checked in par_test)
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		minLook: math.Inf(1),
		workers: w,
		next:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		e.lps = append(e.lps, &LP{id: i, eng: simkit.New(), parent: e})
	}
	return e
}

// NumLPs reports the logical-process count.
func (e *Engine) NumLPs() int { return len(e.lps) }

// LP returns logical process i.
func (e *Engine) LP(i int) *LP { return e.lps[i] }

// Fired reports how many events have run across all LPs.
func (e *Engine) Fired() uint64 { return e.fired }

// Windows reports how many synchronization windows Run has executed —
// the engine's barrier count, for sizing lookahead against sync cost.
func (e *Engine) Windows() uint64 { return e.windows }

// BusyLPs reports the cumulative count of per-LP window executions:
// divided by Windows it is the mean number of LPs with work per window,
// i.e. the simulation's available parallelism. Like Windows it is an
// engine invariant — identical at every worker count — so it measures
// what a worker pool can exploit, independent of the cores present.
func (e *Engine) BusyLPs() uint64 { return e.busyLPs }

// WideWindows reports how many windows had at least inlineLPs (32) LPs
// with work: the windows an engine with more than one worker runs
// through its pool, while narrower ones run inline on the goroutine
// that called Run. Like Windows it is identical at every worker count,
// so a test can check that its model reaches the pool at all.
func (e *Engine) WideWindows() uint64 { return e.wide }

// Link declares the channel src → dst with the given lookahead: a
// guaranteed lower bound on the delay of every Send across it. The
// lookahead must be positive — a zero-lookahead channel admits no
// conservative window, which is exactly why zero-latency couplings
// must live inside one LP.
func (e *Engine) Link(src, dst int, lookaheadMs float64) {
	if src < 0 || src >= len(e.lps) || dst < 0 || dst >= len(e.lps) {
		panic(fmt.Sprintf("par: link %d->%d outside [0,%d)", src, dst, len(e.lps)))
	}
	if src == dst {
		panic(fmt.Sprintf("par: link %d->%d: an LP schedules on itself with At, not Send", src, dst))
	}
	if lookaheadMs <= 0 {
		panic(fmt.Sprintf("par: link %d->%d lookahead %v must be positive", src, dst, lookaheadMs))
	}
	lp := e.lps[src]
	if dst >= len(lp.look) {
		lp.look = append(lp.look, make([]float64, dst+1-len(lp.look))...)
	}
	if cur := lp.look[dst]; cur > 0 && cur <= lookaheadMs {
		return // keep the tighter bound
	}
	lp.look[dst] = lookaheadMs
	if lookaheadMs < e.minLook {
		e.minLook = lookaheadMs
	}
}

// deliver merges the outboxes of lps into the destination queues in
// the canonical (at, src, seq) order and clears the outboxes. lps is in
// LP order and holds every LP that can have buffered a send: all of
// them on entry to run, the LPs of the last window after it. Delivery
// assigns each event its destination-local sequence number at merge
// time, so same-timestamp deliveries fire in merge order — identically
// at any worker count. It also flushes the per-LP trace buffers (see
// WrapSink) in LP order — deliver runs single-threaded between windows,
// which is what makes the flush safe against any base sink.
func (e *Engine) deliver(lps []*LP) {
	for _, lp := range lps {
		for _, s := range lp.spans {
			s.base.Emit(s.ev)
		}
		clear(lp.spans)
		lp.spans = lp.spans[:0]
	}
	all := e.merged[:0]
	for _, lp := range lps {
		all = append(all, lp.outbox...)
		clear(lp.outbox)
		lp.outbox = lp.outbox[:0]
	}
	if len(all) == 0 {
		return
	}
	// (at, src, seq) is unique — seq is per source — so any sort gives
	// the same order.
	slices.SortFunc(all, func(a, b envelope) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, env := range all {
		e.lps[env.dst].eng.At(env.at, env.fn)
	}
	// Drop the delivered closures: the destination queues own them now,
	// and a stale copy here would keep them reachable until overwritten.
	clear(all)
	e.merged = all[:0]
}

// nextAt reports the earliest pending event time across all LPs, and
// records each LP's own (+Inf when its queue is empty) in e.next for
// runLPs, so a window reads every queue head once.
func (e *Engine) nextAt() (float64, bool) {
	t, any := 0.0, false
	for i, lp := range e.lps {
		at, ok := lp.eng.NextAt()
		if !ok {
			at = math.Inf(1)
		} else if !any || at < t {
			t, any = at, true
		}
		e.next[i] = at
	}
	return t, any
}

// runWindow fires lp's events with timestamps strictly below bound and
// at or below limit, returning how many ran. It touches only lp's
// state: window execution across LPs is data-race-free by partition.
func runWindow(lp *LP, bound, limit float64) uint64 {
	var n uint64
	for {
		at, ok := lp.eng.NextAt()
		if !ok || at >= bound || at > limit {
			return n
		}
		lp.eng.Step()
		n++
	}
}

// Run executes the partitioned simulation until no events remain in any
// LP queue or mailbox.
func (e *Engine) Run() { e.run(math.Inf(1)) }

// RunUntil executes events with timestamps at or before deadline, then
// advances every LP clock to the deadline. Events beyond it stay
// queued, undelivered sends beyond it stay deliverable.
func (e *Engine) RunUntil(deadline float64) {
	e.run(deadline)
	for _, lp := range e.lps {
		lp.eng.RunUntil(deadline) // queues hold nothing <= deadline; advances the clock
	}
}

func (e *Engine) run(limit float64) {
	defer e.stopPool()
	// Sends and spans made outside Run, by setup code, can sit in any
	// LP's buffers: flush them all once. Inside the loop only the LPs
	// of the last window can have buffered anything.
	e.deliver(e.lps)
	for {
		T, ok := e.nextAt()
		if !ok || T > limit {
			return
		}
		// Conservative bound: any send from an event at t >= T arrives
		// at >= t + lookahead >= T + minLook, so everything strictly
		// before T+minLook is safe to fire without hearing from other
		// LPs. With no channels the LPs are independent and the window
		// is unbounded.
		bound := T + e.minLook
		e.windows++
		e.fired += e.runLPs(bound, limit)
		e.deliver(e.work)
	}
}

// runLPs executes one window over the LPs with work: inline on the
// calling goroutine for a single worker or a window with few busy LPs,
// through the pool otherwise. Both paths fire the exact same events in
// the exact same per-LP order; the pool only changes which goroutine
// an LP's window runs on.
func (e *Engine) runLPs(bound, limit float64) uint64 {
	// An LP with no event below the bound has nothing to do, and the
	// barrier after the window visits only the LPs listed here.
	work := e.work[:0]
	for i, at := range e.next {
		if at < bound && at <= limit {
			work = append(work, e.lps[i])
		}
	}
	e.work = work
	e.busyLPs += uint64(len(work))
	if len(work) >= inlineLPs {
		e.wide++
	}
	if e.workers == 1 || len(work) < inlineLPs {
		var n uint64
		for _, lp := range work {
			n += runWindow(lp, bound, limit)
		}
		return n
	}
	if e.pool == nil {
		e.pool = newPool(e.workers - 1)
	}
	return e.pool.run(work, bound, limit)
}

// Runner adapts one LP into a simkit.Runner: scheduling goes to the LP,
// Run drives the whole partitioned engine. Experiment drivers written
// against simkit.Runner run on a partitioned engine by passing
// e.Runner(lp) where they passed a *simkit.Engine.
func (e *Engine) Runner(lp int) simkit.Runner { return lpRunner{e.lps[lp], e} }

type lpRunner struct {
	*LP
	e *Engine
}

func (r lpRunner) Run() { r.e.Run() }
