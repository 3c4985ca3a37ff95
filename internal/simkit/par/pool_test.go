package par

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
)

// stressFiring is one recorded event execution on an LP.
type stressFiring struct {
	id int
	at float64
}

// recordSink keeps every flushed span, in flush order.
type recordSink struct{ evs []obs.Event }

func (s *recordSink) Emit(ev obs.Event) { s.evs = append(s.evs, ev) }

// stressResult is everything a run exposes that must not depend on the
// worker count.
type stressResult struct {
	logs                        [][]stressFiring
	spans                       []obs.Event
	fired, windows, busys, wide uint64
}

const stressLook = 1.0

// stressRun drives a fully linked engine of k LPs through thousands of
// short windows whose busy-LP counts swing across inlineLPs. A few
// tokens wander the LPs (a send to a random LP, or a local step), which
// keeps most windows narrow; a token sometimes broadcasts a pulse to
// every other LP at exactly now+lookahead, which makes the next window
// wide, and some pulse leaves reply to the token's LP at one shared
// timestamp (same-time deliveries from many sources). Every event logs
// its firing on its LP and emits a span through the LP's WrapSink into
// one shared sink, so the flushed stream is the barriers' merged
// order. Per-LP state (rng, id counter, log) is touched only by that
// LP's events, and each LP's emitter only by its own events.
func stressRun(seed int64, k, workers int) stressResult {
	pe := New(k, Options{Workers: workers})
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				pe.Link(i, j, stressLook)
			}
		}
	}
	sink := &recordSink{}
	res := stressResult{logs: make([][]stressFiring, k)}
	rngs := make([]*rand.Rand, k)
	sinks := make([]obs.Sink, k)
	ids := make([]int, k)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*1000 + int64(i)))
		sinks[i] = pe.LP(i).WrapSink(sink)
	}
	const (
		token = iota
		leaf
		reply
	)
	// spawn builds, on creator's LP, an event that runs on runner's LP;
	// steps is a token's remaining moves.
	var spawn func(creator, runner, kind, steps int) func()
	spawn = func(creator, runner, kind, steps int) func() {
		ids[creator]++
		id := creator*1_000_000 + ids[creator]
		return func() {
			lp := pe.LP(runner)
			now := lp.Now()
			res.logs[runner] = append(res.logs[runner], stressFiring{id: id, at: now})
			sinks[runner].Emit(obs.Event{TMs: now, Req: uint64(id), Arm: runner})
			r := rngs[runner]
			switch kind {
			case leaf:
				if r.Intn(3) == 0 {
					lp.Send(steps, now+stressLook, spawn(runner, steps, reply, 0))
				}
				return
			case reply:
				return
			}
			if steps == 0 {
				return
			}
			if r.Intn(6) == 0 {
				for d := 0; d < k; d++ {
					if d != runner {
						lp.Send(d, now+stressLook, spawn(runner, d, leaf, runner))
					}
				}
			}
			if r.Intn(2) == 0 {
				d := (runner + 1 + r.Intn(k-1)) % k
				lp.Send(d, now+stressLook+float64(r.Intn(4))*0.25, spawn(runner, d, token, steps-1))
			} else {
				lp.At(now+float64(1+r.Intn(8))*0.25, spawn(runner, runner, token, steps-1))
			}
		}
	}
	for i := 0; i < 3; i++ {
		pe.LP(i).At(float64(i)*0.25, spawn(i, i, token, 3000))
	}
	pe.Run()
	res.spans = sink.evs
	res.fired, res.windows, res.busys, res.wide = pe.Fired(), pe.Windows(), pe.BusyLPs(), pe.WideWindows()
	return res
}

// stressRunWithin is stressRun with a deadline: a pool that loses a
// claimed LP never closes its window, and the run would hang instead
// of failing.
func stressRunWithin(t *testing.T, seed int64, k, workers int) stressResult {
	t.Helper()
	done := make(chan stressResult, 1)
	go func() { done <- stressRun(seed, k, workers) }()
	select {
	case r := <-done:
		return r
	case <-time.After(time.Minute):
		t.Fatalf("seed %d workers %d: run did not finish within a minute: a window never closed", seed, workers)
	}
	return stressResult{}
}

// windowBusy replays the window algorithm over the firing logs: a
// window starts at the earliest firing not yet covered and holds every
// firing before start+lookahead, and its busy LPs are the LPs that
// fired in it. It returns the busy count of every window in order.
func windowBusy(logs [][]stressFiring) []int {
	type f struct {
		at float64
		lp int
	}
	var all []f
	for lp, log := range logs {
		for _, x := range log {
			all = append(all, f{x.at, lp})
		}
	}
	slices.SortFunc(all, func(a, b f) int {
		if a.at < b.at {
			return -1
		}
		if a.at > b.at {
			return 1
		}
		return 0
	})
	var busy []int
	seen := make(map[int]bool)
	for i := 0; i < len(all); {
		bound := all[i].at + stressLook
		clear(seen)
		for ; i < len(all) && all[i].at < bound; i++ {
			seen[all[i].lp] = true
		}
		busy = append(busy, len(seen))
	}
	return busy
}

// TestPoolMatchesSerial pins the pool's claim protocol: over thousands
// of short windows whose busy-LP counts cross inlineLPs in both
// directions — so windows alternate between inline execution and the
// pool, and helpers keep waiting and waking — every worker count fires
// the same events in the same order on every LP, flushes the same span
// stream at the barriers, and counts the same events, windows, busy
// LPs and wide windows as one worker. An LP claimed twice, a claim
// leaking into the next window, or a window closed before its claimed
// LPs finish shows up as a diverging log (and, under -race, as a race).
func TestPoolMatchesSerial(t *testing.T) {
	k := 2*inlineLPs + 4
	for seed := int64(1); seed <= 3; seed++ {
		ref := stressRun(seed, k, 1)
		busy := windowBusy(ref.logs)
		if uint64(len(busy)) != ref.windows {
			t.Fatalf("seed %d: replayed %d windows, engine ran %d", seed, len(busy), ref.windows)
		}
		var sum uint64
		up, down, pooled := 0, 0, 0
		for i, b := range busy {
			sum += uint64(b)
			if b >= inlineLPs {
				pooled++
			}
			if i > 0 && busy[i-1] < inlineLPs && b >= inlineLPs {
				up++
			}
			if i > 0 && busy[i-1] >= inlineLPs && b < inlineLPs {
				down++
			}
		}
		if sum != ref.busys || uint64(pooled) != ref.wide {
			t.Fatalf("seed %d: replayed %d busy LPs and %d wide windows, engine counted %d and %d",
				seed, sum, pooled, ref.busys, ref.wide)
		}
		if ref.windows < 2000 || pooled < 500 || up < 300 || down < 300 {
			t.Fatalf("seed %d: weak schedule: %d windows, %d at or above %d busy LPs, %d crossings up, %d down",
				seed, ref.windows, pooled, inlineLPs, up, down)
		}
		for _, workers := range []int{2, 3, 8} {
			got := stressRunWithin(t, seed, k, workers)
			if got.fired != ref.fired || got.windows != ref.windows || got.busys != ref.busys || got.wide != ref.wide {
				t.Fatalf("seed %d workers %d: fired/windows/busy/wide %d/%d/%d/%d, one worker %d/%d/%d/%d", seed, workers,
					got.fired, got.windows, got.busys, got.wide, ref.fired, ref.windows, ref.busys, ref.wide)
			}
			for lp := range ref.logs {
				if !slices.Equal(got.logs[lp], ref.logs[lp]) {
					t.Fatalf("seed %d workers %d: LP %d firing log diverges from one worker", seed, workers, lp)
				}
			}
			if !slices.Equal(got.spans, ref.spans) {
				t.Fatalf("seed %d workers %d: flushed span stream diverges from one worker", seed, workers)
			}
		}
	}
}
