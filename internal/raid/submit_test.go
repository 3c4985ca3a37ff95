package raid

import (
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/trace"
)

// quietDisk is a member that allocates nothing per op once warm: it
// completes ops in submission order a fixed 1 ms after each arrives,
// through one engine event built with the disk.
type quietDisk struct {
	s       simkit.Scheduler
	pending []device.Done
	head    int
	fire    simkit.Event // d.complete, bound once
}

func newQuietDisk(s simkit.Scheduler) *quietDisk {
	d := &quietDisk{s: s}
	d.fire = d.complete
	return d
}

func (d *quietDisk) Submit(_ trace.Request, done device.Done) {
	d.pending = append(d.pending, done)
	d.s.After(1, d.fire)
}

// complete finishes the oldest pending op; with one fixed latency the
// engine fires completions in submission order.
func (d *quietDisk) complete() {
	done := d.pending[d.head]
	d.pending[d.head] = nil
	d.head++
	if d.head == len(d.pending) {
		d.pending, d.head = d.pending[:0], 0
	}
	if done != nil {
		done(d.s.Now())
	}
}

func (d *quietDisk) Power(float64) (b power.Breakdown) { return b }

func (d *quietDisk) Capacity() int64 { return 1 << 40 }

// quietArray builds a direct-coupled array of quietDisks with member
// dead failed (-1: healthy), and a fixed table of mixed reads and
// writes of 1 to 256 sectors over its address space.
func quietArray(tb testing.TB, l Layout, dead int) (*simkit.Engine, *Array, []trace.Request) {
	tb.Helper()
	eng := simkit.New()
	members := make([]device.Device, l.Members())
	for i := range members {
		members[i] = newQuietDisk(eng)
	}
	a, err := NewArray(l, members)
	if err != nil {
		tb.Fatal(err)
	}
	if dead >= 0 {
		if err := a.FailMember(dead); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	reqs := make([]trace.Request, 64)
	for i := range reqs {
		reqs[i] = trace.Request{
			LBA:     rng.Int63n(l.Capacity() - 256),
			Sectors: 1 + rng.Intn(256),
			Read:    rng.Intn(100) < 60,
		}
	}
	return eng, a, reqs
}

// quietLinkedArray is quietArray on the linked coupling: the
// controller on LP 0 of a one-worker partitioned engine, a quietDisk
// on each member LP. Requests must be submitted from controller-LP
// events.
func quietLinkedArray(tb testing.TB, l Layout, dead int) (*par.Engine, *Array, []trace.Request) {
	tb.Helper()
	eng := par.New(1+l.Members(), par.Options{Workers: 1})
	a, err := NewPartitioned(eng, l, bus.DefaultLink(), 512, func(s simkit.Scheduler, _ int) (device.Device, error) {
		return newQuietDisk(s), nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if dead >= 0 {
		if err := a.FailMember(dead); err != nil {
			tb.Fatal(err)
		}
	}
	_, _, reqs := quietArray(tb, l, -1)
	return eng, a, reqs
}

// submitLayouts are the layouts the allocation test and benchmark
// drive, each with the member a degraded run fails (-1: none can fail).
var submitLayouts = []struct {
	name string
	dead int
	mk   func() (Layout, error)
}{
	{"raid0", -1, func() (Layout, error) { return NewRAID0(4, 1<<20, 64) }},
	{"raid1", 1, func() (Layout, error) { return NewRAID1(2, 1<<20) }},
	{"raid5", 1, func() (Layout, error) { return NewRAID5(4, 1<<20, 64) }},
	{"raid10", 1, func() (Layout, error) { return NewRAID10(4, 1<<20, 64) }},
}

// TestArraySubmitAllocatesNothing pins the direct-coupled request path
// to zero allocations once warm: bursts of eight requests, each
// planned, fanned out over the members (rewritten for a failed member
// when degraded), completed phase by phase and reported to a prebuilt
// done. A per-phase closure, a fresh plan or a fresh degraded-op slice
// per request shows here as a nonzero count.
func TestArraySubmitAllocatesNothing(t *testing.T) {
	for _, c := range submitLayouts {
		deads := []int{-1}
		if c.dead >= 0 {
			deads = append(deads, c.dead)
		}
		for _, dead := range deads {
			name := c.name
			if dead >= 0 {
				name += "-degraded"
			}
			l, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			eng, a, reqs := quietArray(t, l, dead)
			completed := 0
			done := func(float64) { completed++ }
			next := 0
			cycle := func() {
				for k := 0; k < 8; k++ {
					a.Submit(reqs[next], done)
					next = (next + 1) % len(reqs)
				}
				eng.Run()
			}
			for i := 0; i < 100; i++ {
				cycle()
			}
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("%s: %v allocations per burst of 8 requests, want 0", name, n)
			}
			if want := 8 * (100 + 201); completed != want {
				t.Errorf("%s: %d requests completed, want %d", name, completed, want)
			}
		}
	}
}

// TestLinkedSubmitAllocatesNothing pins the linked coupling to zero
// allocations once warm: bursts of eight requests submitted from a
// controller-LP event on RAID-0, and on RAID-5 with a failed member,
// each op carried over the links in a pooled link-op record and the
// windows and barriers run by the partitioned engine. A per-op closure
// creeping back into issueOp shows here as a nonzero count.
func TestLinkedSubmitAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		idx  int // into submitLayouts
		dead bool
	}{{"raid0", 0, false}, {"raid5-degraded", 2, true}} {
		sl := submitLayouts[c.idx]
		l, err := sl.mk()
		if err != nil {
			t.Fatal(err)
		}
		dead := -1
		if c.dead {
			dead = sl.dead
		}
		eng, a, reqs := quietLinkedArray(t, l, dead)
		ctrl := eng.LP(0)
		completed := 0
		done := func(float64) { completed++ }
		next := 0
		burst := func() {
			for k := 0; k < 8; k++ {
				a.Submit(reqs[next], done)
				next = (next + 1) % len(reqs)
			}
		}
		cycle := func() {
			ctrl.At(ctrl.Now(), burst)
			eng.Run()
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: %v allocations per burst of 8 linked requests, want 0", c.name, n)
		}
		if want := 8 * (100 + 201); completed != want {
			t.Errorf("%s: %d requests completed, want %d", c.name, completed, want)
		}
	}
}

// BenchmarkArraySubmit times one array request submitted to an array
// of allocation-free members and drained: the plan, the member
// fan-out, the phase loop and the completion, on direct calls and,
// for the -linked cases, over the links of a one-worker partitioned
// engine (link-op records, windows and barriers included). The
// harness allocates nothing, so allocs/op is the array's own count.
func BenchmarkArraySubmit(b *testing.B) {
	for _, c := range []struct {
		name   string
		idx    int // into submitLayouts
		dead   bool
		linked bool
	}{
		{"raid0", 0, false, false}, {"raid5", 2, false, false}, {"raid5-degraded", 2, true, false},
		{"raid0-linked", 0, false, true}, {"raid5-degraded-linked", 2, true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			sl := submitLayouts[c.idx]
			l, err := sl.mk()
			if err != nil {
				b.Fatal(err)
			}
			dead := -1
			if c.dead {
				dead = sl.dead
			}
			var (
				a      *Array
				reqs   []trace.Request
				submit func(trace.Request)
			)
			if c.linked {
				var eng *par.Engine
				eng, a, reqs = quietLinkedArray(b, l, dead)
				ctrl := eng.LP(0)
				var r trace.Request
				one := func() { a.Submit(r, nil) }
				submit = func(req trace.Request) {
					r = req
					ctrl.At(ctrl.Now(), one)
					eng.Run()
				}
			} else {
				var eng *simkit.Engine
				eng, a, reqs = quietArray(b, l, dead)
				submit = func(req trace.Request) {
					a.Submit(req, nil)
					eng.Run()
				}
			}
			for i := range reqs {
				submit(reqs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(reqs[i%len(reqs)])
			}
			if a.Completed() != a.Submitted() {
				b.Fatalf("%d of %d requests completed", a.Completed(), a.Submitted())
			}
		})
	}
}
