package par_test

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
)

// runRandomSchedule drives a scheduler with a randomized self-spawning
// schedule — the same idiom simkit's heap_test.go uses against the
// reference binary heap — and returns the firing order. Timestamps draw
// from a small discrete grid so same-timestamp ties are common.
func runRandomSchedule(seed int64, s simkit.Scheduler, run func()) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	stamp := func(base float64) float64 { return base + float64(rng.Intn(40))*0.25 }
	id := 0
	var spawn func(depth int) simkit.Event
	spawn = func(depth int) simkit.Event {
		myID := id
		return func() {
			order = append(order, myID)
			if depth < 3 && rng.Intn(3) == 0 {
				id++
				s.At(stamp(s.Now()), spawn(depth+1))
			}
		}
	}
	n := 50 + rng.Intn(100)
	for i := 0; i < n; i++ {
		id++
		s.At(stamp(0), spawn(0))
	}
	run()
	return order
}

// TestSingleLPMatchesEngine is the substrate-swap guarantee: a one-LP
// partitioned engine fires any schedule in exactly the order the
// sequential simkit.Engine does, so experiments that swap simkit.New()
// for par.New(1, ...).Runner(0) are byte-identical by construction.
func TestSingleLPMatchesEngine(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		seed := int64(trial + 1)
		eng := simkit.New()
		ref := runRandomSchedule(seed, eng, eng.Run)

		for _, workers := range []int{1, 8} {
			pe := par.New(1, par.Options{Workers: workers})
			got := runRandomSchedule(seed, pe.LP(0), pe.Run)
			if len(got) != len(ref) {
				t.Fatalf("trial %d workers %d: fired %d events, engine fired %d",
					trial, workers, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d workers %d: firing order diverges at %d: par %d, engine %d",
						trial, workers, i, got[i], ref[i])
				}
			}
			if pe.Fired() != uint64(len(ref)) {
				t.Fatalf("trial %d workers %d: Fired()=%d, want %d", trial, workers, pe.Fired(), len(ref))
			}
		}
	}
}

// firing is one recorded event execution: which event, at what time.
type firing struct {
	id int
	at float64
}

// runPartitionedSchedule builds a fully linked K-LP engine and drives it
// with a randomized schedule of local events and cross-LP sends. The
// lookahead (1.0) and the send-offset grid (multiples of 0.25) are
// commensurate, so cross-LP deliveries routinely tie with each other and
// with local events at the exact same timestamp. Every per-LP structure
// (rng, id counter, firing log) is touched only by that LP's events, so
// the schedule is identical at any worker count iff the engine is
// deterministic — which is what the caller asserts.
func runPartitionedSchedule(seedBase int64, workers int) (logs [][]firing, windows, fired uint64) {
	const K = 4
	const look = 1.0
	pe := par.New(K, par.Options{Workers: workers})
	for i := 0; i < K; i++ {
		for j := 0; j < K; j++ {
			if i != j {
				pe.Link(i, j, look)
			}
		}
	}
	logs = make([][]firing, K)
	rngs := make([]*rand.Rand, K)
	ids := make([]int, K)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seedBase + int64(i)))
	}
	// spawn builds an event owned by creator (whose id counter names it)
	// that will run on runner's LP. Creation always happens on creator's
	// goroutine, execution on runner's, so neither step races.
	var spawn func(creator, runner, depth int) simkit.Event
	spawn = func(creator, runner, depth int) simkit.Event {
		ids[creator]++
		myID := creator*1_000_000 + ids[creator]
		return func() {
			lp := pe.LP(runner)
			logs[runner] = append(logs[runner], firing{id: myID, at: lp.Now()})
			if depth >= 4 {
				return
			}
			r := rngs[runner]
			switch r.Intn(4) {
			case 0:
				lp.At(lp.Now()+float64(r.Intn(40))*0.25, spawn(runner, runner, depth+1))
			case 1:
				dst := r.Intn(K - 1)
				if dst >= runner {
					dst++
				}
				lp.Send(dst, lp.Now()+look+float64(r.Intn(8))*0.25, spawn(runner, dst, depth+1))
			}
		}
	}
	for i := 0; i < K; i++ {
		for j := 0; j < 25; j++ {
			pe.LP(i).At(float64(rngs[i].Intn(40))*0.25, spawn(i, i, 0))
		}
	}
	pe.Run()
	return logs, pe.Windows(), pe.Fired()
}

// TestParallelMatchesSerial is the engine's central claim, mirrored on
// heap_test.go's cross-check structure: the same randomized schedule —
// cross-LP sends, nested scheduling, deliberate same-timestamp ties —
// fires identically (same events, same order, same times, same window
// count) with one worker and with eight. Run under -race this also
// proves window execution and the barrier protocol are race-free.
func TestParallelMatchesSerial(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		seed := int64(100 * (trial + 1))
		refLogs, refWindows, refFired := runPartitionedSchedule(seed, 1)
		gotLogs, gotWindows, gotFired := runPartitionedSchedule(seed, 8)

		if gotWindows != refWindows || gotFired != refFired {
			t.Fatalf("trial %d: windows/fired %d/%d parallel vs %d/%d serial",
				trial, gotWindows, gotFired, refWindows, refFired)
		}
		if refFired == 0 || refWindows < 2 {
			t.Fatalf("trial %d: degenerate schedule (%d events, %d windows)", trial, refFired, refWindows)
		}
		for lp := range refLogs {
			if len(gotLogs[lp]) != len(refLogs[lp]) {
				t.Fatalf("trial %d LP %d: fired %d events parallel, %d serial",
					trial, lp, len(gotLogs[lp]), len(refLogs[lp]))
			}
			for i := range refLogs[lp] {
				if gotLogs[lp][i] != refLogs[lp][i] {
					t.Fatalf("trial %d LP %d: firing %d diverges: parallel %+v, serial %+v",
						trial, lp, i, gotLogs[lp][i], refLogs[lp][i])
				}
			}
		}
	}
}

// TestCrossLPTieOrder pins the documented merge order for deliveries
// that tie on timestamp: (at, source LP, source send seq). Two sources
// each send twice to LP 0 at the identical instant; the deliveries must
// fire in source order, and within a source in send order, regardless
// of worker count.
func TestCrossLPTieOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pe := par.New(3, par.Options{Workers: workers})
		pe.Link(1, 0, 1)
		pe.Link(2, 0, 1)
		var order []string
		mark := func(s string) simkit.Event { return func() { order = append(order, s) } }
		pe.LP(1).At(0, func() {
			pe.LP(1).Send(0, 5, mark("src1/a"))
			pe.LP(1).Send(0, 5, mark("src1/b"))
		})
		pe.LP(2).At(0, func() {
			pe.LP(2).Send(0, 5, mark("src2/a"))
			pe.LP(2).Send(0, 5, mark("src2/b"))
		})
		pe.Run()
		want := []string{"src1/a", "src1/b", "src2/a", "src2/b"}
		if len(order) != len(want) {
			t.Fatalf("workers %d: fired %v, want %v", workers, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("workers %d: tie order %v, want %v", workers, order, want)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestContractPanics pins the fail-fast modeling contract: undeclared
// channels, lookahead violations, degenerate links, and empty engines
// are bugs, not conditions to tolerate.
func TestContractPanics(t *testing.T) {
	mustPanic(t, "New(0)", func() { par.New(0, par.Options{}) })

	pe := par.New(2, par.Options{Workers: 1})
	mustPanic(t, "self link", func() { pe.Link(0, 0, 1) })
	mustPanic(t, "zero lookahead", func() { pe.Link(0, 1, 0) })
	mustPanic(t, "negative lookahead", func() { pe.Link(0, 1, -1) })
	mustPanic(t, "out-of-range link", func() { pe.Link(0, 2, 1) })
	mustPanic(t, "send without link", func() {
		pe.LP(0).At(0, func() { pe.LP(0).Send(1, 10, func() {}) })
		pe.Run()
	})

	pe2 := par.New(2, par.Options{Workers: 1})
	pe2.Link(0, 1, 2)
	mustPanic(t, "send violating lookahead", func() {
		pe2.LP(0).At(0, func() { pe2.LP(0).Send(1, 1.5, func() {}) })
		pe2.Run()
	})
}

// TestLinkKeepsTighterBound re-declaring a channel with a looser
// lookahead must not widen the windows the engine believes are safe.
func TestLinkKeepsTighterBound(t *testing.T) {
	pe := par.New(2, par.Options{Workers: 1})
	pe.Link(0, 1, 0.5)
	pe.Link(0, 1, 5) // looser; ignored
	mustPanic(t, "send honoring only the loose bound", func() {
		pe.LP(0).At(10, func() { pe.LP(0).Send(1, 10.4, func() {}) })
		pe.Run()
	})
	// The tight bound itself is fine.
	pe2 := par.New(2, par.Options{Workers: 1})
	pe2.Link(0, 1, 0.5)
	pe2.Link(0, 1, 5)
	ran := false
	pe2.LP(0).At(10, func() { pe2.LP(0).Send(1, 10.5, func() { ran = true }) })
	pe2.Run()
	if !ran {
		t.Fatal("send at exactly the tight lookahead never fired")
	}
}

// TestRunUntil pins the deadline contract: events at or before the
// deadline fire, later ones stay queued, every LP clock lands exactly
// on the deadline, and a later Run picks up the remainder — including
// a cross-LP send buffered past the deadline.
func TestRunUntil(t *testing.T) {
	pe := par.New(2, par.Options{Workers: 1})
	pe.Link(0, 1, 1)
	var fired []string
	pe.LP(0).At(3, func() {
		fired = append(fired, "early")
		pe.LP(0).Send(1, 20, func() { fired = append(fired, "late-send") })
	})
	pe.LP(1).At(30, func() { fired = append(fired, "late-local") })

	pe.RunUntil(10)
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("after RunUntil(10): fired %v", fired)
	}
	for i := 0; i < 2; i++ {
		if now := pe.LP(i).Now(); now != 10 {
			t.Fatalf("LP %d clock %g after RunUntil(10)", i, now)
		}
	}
	pe.Run()
	if len(fired) != 3 || fired[1] != "late-send" || fired[2] != "late-local" {
		t.Fatalf("after Run: fired %v", fired)
	}
}

// TestRunnerDrivesWholeEngine: the simkit.Runner adapter schedules on
// its LP but Run executes every LP, so replay drivers written against
// simkit.Runner work unchanged on a partitioned engine.
func TestRunnerDrivesWholeEngine(t *testing.T) {
	pe := par.New(2, par.Options{Workers: 1})
	pe.Link(0, 1, 1)
	r := pe.Runner(0)
	var got []string
	r.At(1, func() {
		got = append(got, "ctrl")
		pe.LP(0).Send(1, 2.5, func() { got = append(got, "member") })
	})
	r.Run()
	if len(got) != 2 || got[0] != "ctrl" || got[1] != "member" {
		t.Fatalf("runner run fired %v", got)
	}
	if r.Now() != 2.5 {
		// Runner reports its own LP's clock; LP 0 saw nothing after 1,
		// but Run drains everything, so both clocks end at the last
		// event time it processed.
		t.Logf("controller clock %g", r.Now())
	}
}

// TestIndependentLPsOneWindow: with no channels the minimum lookahead is
// unbounded, so fully independent LPs run to completion in a single
// window — the engine never pays barriers it does not need.
func TestIndependentLPsOneWindow(t *testing.T) {
	pe := par.New(4, par.Options{Workers: 4})
	for i := 0; i < 4; i++ {
		i := i
		for j := 0; j < 10; j++ {
			pe.LP(i).At(float64(j), func() {})
		}
	}
	pe.Run()
	if pe.Windows() != 1 {
		t.Fatalf("independent LPs took %d windows, want 1", pe.Windows())
	}
	if pe.Fired() != 40 {
		t.Fatalf("fired %d, want 40", pe.Fired())
	}
}

// TestBarrierAllocatesNothing pins the allocation-free window barrier:
// once the per-window buffers reach their high-water marks, selecting
// the LPs with work and merging the cross-LP sends (including a
// same-timestamp tie between members) allocate nothing. With two
// workers the ping fans out to enough members that their windows go
// through the pool, whose helpers start and stop with every Run, and
// that allocates nothing either.
func TestBarrierAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		members := 2
		if workers > 1 {
			members = par.InlineLPs + 1
		}
		e := par.New(1+members, par.Options{Workers: workers})
		for m := 1; m <= members; m++ {
			e.Link(0, m, 1)
			e.Link(m, 0, 1)
		}
		lp0 := e.LP(0)
		rounds := 0
		var ping simkit.Event
		nop := func() {}
		pongs := make([]simkit.Event, 1+members)
		for m := 1; m <= members; m++ {
			lp, back := e.LP(m), nop
			if m == 1 {
				back = func() { ping() }
			}
			pongs[m] = func() { lp.Send(0, lp.Now()+1, back) }
		}
		ping = func() {
			if rounds == 0 {
				return
			}
			rounds--
			for m := 1; m <= members; m++ {
				lp0.Send(m, lp0.Now()+1, pongs[m])
			}
		}
		cycle := func() {
			rounds = 50
			lp0.After(1, ping)
			e.Run()
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("workers %d: a 100-window run allocated %v times, want 0", workers, n)
		}
		if workers > 1 && e.WideWindows() == 0 {
			t.Fatalf("workers %d: no window went through the pool", workers)
		}
	}
}

// TestSetupSendAndSpanFlushed: a send and a span made by setup code,
// before Run, sit in the buffers of an LP that may never run a window.
// Run flushes every LP once on entry, so both still arrive, at any
// worker count.
func TestSetupSendAndSpanFlushed(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pe := par.New(3, par.Options{Workers: workers})
		pe.Link(2, 0, 1)
		sink := &obs.MemorySink{}
		pe.LP(2).WrapSink(sink).Emit(obs.Event{TMs: 0, Dev: "setup"})
		ran := false
		pe.LP(2).Send(0, 4, func() { ran = true })
		pe.Run()
		if !ran {
			t.Fatalf("workers %d: a send made before Run never fired", workers)
		}
		if n := len(sink.Events()); n != 1 {
			t.Fatalf("workers %d: %d spans flushed, want the one emitted before Run", workers, n)
		}
	}
}
