package raid

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// journaled appends a one-sector write on member 0 as a last phase to
// every plan of a redundant layout, so a dead member 0 empties the
// plan's last phase — the shape no stock layout produces and the one
// the runPhase lastDone carry exists for.
type journaled struct{ Layout }

func (j journaled) Plan(r trace.Request) (Plan, error) {
	p, err := j.Layout.Plan(r)
	if err != nil {
		return p, err
	}
	p.Phases = append(p.Phases, []Op{{Dev: 0, Sectors: 1}})
	return p, nil
}

func (j journaled) Reconstruct(op Op, failed int) ([]Op, error) {
	return j.Layout.(Reconstructor).Reconstruct(op, failed)
}

func (j journaled) MemberExtent() int64 { return j.Layout.(MemberSizer).MemberExtent() }

// diffArray is what the differential test drives on Array and refArray.
type diffArray interface {
	device.Device
	device.Instrumented
	FailMember(i int) error
	Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error
}

// deathTrial is one randomized degraded run: a random request stream,
// a member death and a rebuild with random chunking and depth. A
// negative dead member leaves the array healthy.
type deathTrial struct {
	dead               int
	deathMs, rebuildMs float64
	depth              int
	chunk              int64
	tr                 trace.Trace
}

func newDeathTrial(rng *rand.Rand, members int, extent int64, tr trace.Trace) deathTrial {
	d := deathTrial{dead: rng.Intn(members), deathMs: 50 + rng.Float64()*300, tr: tr}
	d.rebuildMs = d.deathMs + 20 + rng.Float64()*200
	d.depth = 1 + rng.Intn(6)
	chunks := int64(8 + rng.Intn(56))
	d.chunk = (extent + chunks - 1) / chunks
	return d
}

// outcome is what a degraded run must reproduce bit for bit.
type outcome struct {
	done    []uint64 // Float64bits of each request's completion time
	copied  int64
	rebuilt float64 // rebuild completion time, -1 if it never finished
	snap    []byte
}

// play arms the trial's death, rebuild and arrivals as events on the
// controller's scheduler s and runs the simulation.
func (d deathTrial) play(t *testing.T, s simkit.Runner, arr diffArray) outcome {
	t.Helper()
	o := outcome{done: make([]uint64, len(d.tr)), rebuilt: -1}
	if d.dead >= 0 {
		s.At(d.deathMs, func() {
			if err := arr.FailMember(d.dead); err != nil {
				t.Errorf("FailMember: %v", err)
			}
		})
		s.At(d.rebuildMs, func() {
			if err := arr.Rebuild(d.dead, d.chunk, d.depth, func(n int64) { o.copied, o.rebuilt = n, s.Now() }); err != nil {
				t.Errorf("Rebuild: %v", err)
			}
		})
	}
	for i, r := range d.tr {
		i, r := i, r
		s.At(r.ArrivalMs, func() { arr.Submit(r, func(at float64) { o.done[i] = math.Float64bits(at) }) })
	}
	s.Run()
	js, err := obs.MarshalSnapshot(arr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	o.snap = js
	return o
}

// mustMatch fails the test unless o reproduces want bit for bit.
func (o outcome) mustMatch(t *testing.T, what string, want outcome) {
	t.Helper()
	if o.copied != want.copied || o.rebuilt != want.rebuilt {
		t.Fatalf("%s: rebuild copied %d done %g, want %d done %g", what, o.copied, o.rebuilt, want.copied, want.rebuilt)
	}
	for i := range want.done {
		if o.done[i] != want.done[i] {
			t.Fatalf("%s: request %d completed at %g, want %g", what, i,
				math.Float64frombits(o.done[i]), math.Float64frombits(want.done[i]))
		}
	}
	if !bytes.Equal(o.snap, want.snap) {
		t.Fatalf("%s: snapshots diverge:\ngot:  %s\nwant: %s", what, o.snap, want.snap)
	}
}

// TestDirectCouplingMatchesReference is the randomized differential
// check (heap_test idiom) of the direct coupling against refArray, the
// direct-call array as it stood before the couplings were folded into
// one type. Over random RAID-0/1/5/10 layouts, request streams, member
// deaths and rebuild chunk sizes and depths, both must agree bit for
// bit on every completion time, the copied sectors, the rebuild's
// completion time and the snapshot bytes.
func TestDirectCouplingMatchesReference(t *testing.T) {
	const memberSectors = 1 << 14
	for trial := 0; trial < 48; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		kind := trial % 4
		n := []int{2 + rng.Intn(5), 2 + rng.Intn(2), 3 + rng.Intn(4), 2 + 2*rng.Intn(3)}[kind]
		journal := kind != 0 && rng.Intn(2) == 0
		// A fresh layout per array: RAID-1/10 reads rotate through
		// layout state.
		layout := func() Layout {
			l, err := []func() (Layout, error){
				func() (Layout, error) { return NewRAID0(n, memberSectors, 64) },
				func() (Layout, error) { return NewRAID1(n, memberSectors) },
				func() (Layout, error) { return NewRAID5(n, memberSectors, 64) },
				func() (Layout, error) { return NewRAID10(n, memberSectors, 64) },
			}[kind]()
			if err != nil {
				t.Fatal(err)
			}
			if journal {
				return journaled{l}
			}
			return l
		}
		l := layout()
		d := newDeathTrial(rng, n, l.(MemberSizer).MemberExtent(), partTrace(int64(900+trial), 300, l.Capacity()))
		if kind == 0 {
			d.dead = -1 // RAID-0 has no redundancy to lose a member
		}
		run := func(build func(Layout, []device.Device) diffArray) outcome {
			eng := simkit.New()
			members := make([]device.Device, n)
			for i := range members {
				members[i] = &instrumentedDisk{fakeDisk: &fakeDisk{s: eng, capacity: 1 << 40}, name: fmt.Sprintf("m%d", i)}
			}
			return d.play(t, eng, build(layout(), members))
		}
		want := run(func(l Layout, m []device.Device) diffArray {
			return &refArray{layout: l, members: m, failed: make([]bool, len(m))}
		})
		if kind != 0 && want.rebuilt < 0 {
			t.Fatalf("trial %d: reference rebuild never completed", trial)
		}
		run(func(l Layout, m []device.Device) diffArray {
			a, err := NewArray(l, m)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}).mustMatch(t, fmt.Sprintf("trial %d", trial), want)
	}
}

// refArray is a verbatim copy of the direct-call Array's request,
// degraded and rebuild paths from before the couplings were folded
// into one type; TestDirectCouplingMatchesReference pins Array to it.
type refArray struct {
	layout  Layout
	members []device.Device
	failed  []bool

	submitted     uint64
	completed     uint64
	reconstructed uint64
}

func (a *refArray) Capacity() int64 { return a.layout.Capacity() }

func (a *refArray) Power(float64) (b power.Breakdown) { return b }

func (a *refArray) FailMember(i int) error {
	a.failed[i] = true
	return nil
}

func (a *refArray) Degraded() bool {
	for _, f := range a.failed {
		if f {
			return true
		}
	}
	return false
}

func refDegradedOps(layout Layout, failed []bool, ops []Op) ([]Op, uint64, error) {
	var out []Op
	var reconstructed uint64
	for _, op := range ops {
		if !failed[op.Dev] {
			out = append(out, op)
			continue
		}
		if !op.Read {
			continue
		}
		rec, err := layout.(Reconstructor).Reconstruct(op, op.Dev)
		if err != nil {
			return nil, 0, err
		}
		reconstructed++
		out = append(out, rec...)
	}
	return out, reconstructed, nil
}

func (a *refArray) effectiveOps(ops []Op) ([]Op, error) {
	if !a.Degraded() {
		return ops, nil
	}
	out, rec, err := refDegradedOps(a.layout, a.failed, ops)
	if err != nil {
		return nil, err
	}
	a.reconstructed += rec
	return out, nil
}

func (a *refArray) Submit(r trace.Request, done device.Done) {
	plan, err := a.layout.Plan(r)
	if err != nil {
		panic(err)
	}
	a.submitted++
	a.runPhase(plan, 0, 0, done)
}

func (a *refArray) runPhase(plan Plan, phase int, lastDone float64, done device.Done) {
	if phase >= len(plan.Phases) {
		a.completed++
		if done != nil {
			done(lastDone)
		}
		return
	}
	ops, err := a.effectiveOps(plan.Phases[phase])
	if err != nil {
		panic(err)
	}
	if len(ops) == 0 {
		a.runPhase(plan, phase+1, lastDone, done)
		return
	}
	outstanding := len(ops)
	for _, op := range ops {
		sub := trace.Request{
			LBA:     op.LBA,
			Sectors: op.Sectors,
			Read:    op.Read,
		}
		a.members[op.Dev].Submit(sub, func(at float64) {
			if at > lastDone {
				lastDone = at
			}
			outstanding--
			if outstanding == 0 {
				a.runPhase(plan, phase+1, lastDone, done)
			}
		})
	}
}

func (a *refArray) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:     a.layout.Name(),
		Kind:       "raid",
		Submitted:  a.submitted,
		Completed:  a.completed,
		Counters:   map[string]uint64{"reconstructed": a.reconstructed},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	failed := uint64(0)
	for i, m := range a.members {
		if a.failed[i] {
			failed++
		}
		if in, ok := m.(device.Instrumented); ok {
			s.Children = append(s.Children, in.Snapshot())
		}
	}
	s.Counters["failed_members"] = failed
	return s
}

func (a *refArray) Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error {
	if dev < 0 || dev >= len(a.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", dev, len(a.members))
	}
	if !a.failed[dev] {
		return fmt.Errorf("raid: member %d is not failed", dev)
	}
	if chunkSectors <= 0 {
		return fmt.Errorf("raid: chunk %d must be positive", chunkSectors)
	}
	if depth <= 0 {
		return fmt.Errorf("raid: depth %d must be positive", depth)
	}
	rec, ok := a.layout.(Reconstructor)
	if !ok {
		return fmt.Errorf("raid: %s cannot reconstruct", a.layout.Name())
	}
	extent := a.members[dev].Capacity()
	if sizer, ok := a.layout.(MemberSizer); ok {
		extent = sizer.MemberExtent()
	}

	var (
		cursor   int64
		inflight int
		copied   int64
		issue    func()
	)
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		a.failed[dev] = false
		if onDone != nil {
			onDone(copied)
		}
	}
	issue = func() {
		for inflight < depth && cursor < extent {
			start := cursor
			n := chunkSectors
			if start+n > extent {
				n = extent - start
			}
			cursor += n
			inflight++

			ops, err := rec.Reconstruct(Op{Dev: dev, LBA: start, Sectors: int(n), Read: true}, dev)
			if err != nil {
				panic(err)
			}
			writeChunk := func() {
				a.members[dev].Submit(
					trace.Request{LBA: start, Sectors: int(n), Read: false},
					func(float64) {
						copied += n
						inflight--
						if cursor < extent {
							issue()
						} else if inflight == 0 {
							finish()
						}
					})
			}
			if len(ops) == 0 {
				writeChunk()
				continue
			}
			outstanding := len(ops)
			for _, op := range ops {
				a.members[op.Dev].Submit(trace.Request{LBA: op.LBA, Sectors: op.Sectors, Read: true},
					func(float64) {
						outstanding--
						if outstanding != 0 {
							return
						}
						writeChunk()
					})
			}
		}
	}
	issue()
	if inflight == 0 && cursor >= extent {
		finish()
	}
	return nil
}
