package raid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// fakeDisk is a deterministic member device on any scheduler: the one
// event loop of a direct array, or one LP of a partitioned engine.
// Every operation is recorded and takes latencyMs, or when that is
// zero an op-dependent service time, irregular enough to exercise the
// partitioned engine's window overlap.
type fakeDisk struct {
	s         simkit.Scheduler
	latencyMs float64
	capacity  int64
	ops       []trace.Request
}

var _ device.Device = (*fakeDisk)(nil)

func (f *fakeDisk) Submit(r trace.Request, done device.Done) {
	if r.End() > f.capacity {
		panic("fakeDisk: out of range")
	}
	f.ops = append(f.ops, r)
	lat := f.latencyMs
	if lat == 0 {
		lat = 2.0 + float64(r.LBA%17)*0.25 + float64(r.Sectors)*0.05
	}
	f.s.After(lat, func() {
		if done != nil {
			done(f.s.Now())
		}
	})
}

func (f *fakeDisk) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	b.Watts[power.Idle] = 5 // constant placeholder
	b.Elapsed = elapsedMs
	return b
}

func (f *fakeDisk) Capacity() int64 { return f.capacity }

func fakeArray(t *testing.T, layout Layout, latencies []float64) (*simkit.Engine, *Array, []*fakeDisk) {
	t.Helper()
	eng := simkit.New()
	disks := make([]*fakeDisk, layout.Members())
	members := make([]device.Device, layout.Members())
	for i := range disks {
		lat := 1.0
		if latencies != nil {
			lat = latencies[i]
		}
		disks[i] = &fakeDisk{s: eng, latencyMs: lat, capacity: 1 << 40}
		members[i] = disks[i]
	}
	a, err := NewArray(layout, members)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return eng, a, disks
}

// --- JBOD ---

func TestJBODValidation(t *testing.T) {
	if _, err := NewJBOD(nil); err == nil {
		t.Fatalf("empty JBOD accepted")
	}
	if _, err := NewJBOD([]int64{100, 0}); err == nil {
		t.Fatalf("zero-capacity member accepted")
	}
}

func TestJBODOffsetsAndCapacity(t *testing.T) {
	j, err := NewJBOD([]int64{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	if j.Capacity() != 600 {
		t.Fatalf("Capacity = %d", j.Capacity())
	}
	want := []int64{0, 100, 300}
	for i, o := range j.Offsets() {
		if o != want[i] {
			t.Fatalf("Offsets = %v", j.Offsets())
		}
	}
}

func TestJBODPlanWithinOneMember(t *testing.T) {
	j, _ := NewJBOD([]int64{100, 200})
	p, err := j.Plan(trace.Request{LBA: 150, Sectors: 10, Read: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 1 || len(p.Phases[0]) != 1 {
		t.Fatalf("plan %+v", p)
	}
	op := p.Phases[0][0]
	if op.Dev != 1 || op.LBA != 50 || op.Sectors != 10 || !op.Read {
		t.Fatalf("op %+v", op)
	}
}

func TestJBODPlanSpansBoundary(t *testing.T) {
	j, _ := NewJBOD([]int64{100, 200})
	p, err := j.Plan(trace.Request{LBA: 95, Sectors: 10, Read: false})
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Phases[0]
	if len(ops) != 2 {
		t.Fatalf("boundary request split into %d ops", len(ops))
	}
	if ops[0].Dev != 0 || ops[0].LBA != 95 || ops[0].Sectors != 5 {
		t.Fatalf("first op %+v", ops[0])
	}
	if ops[1].Dev != 1 || ops[1].LBA != 0 || ops[1].Sectors != 5 {
		t.Fatalf("second op %+v", ops[1])
	}
}

func TestJBODPlanOutOfRange(t *testing.T) {
	j, _ := NewJBOD([]int64{100})
	if _, err := j.Plan(trace.Request{LBA: 95, Sectors: 10}); err == nil {
		t.Fatalf("out-of-range plan accepted")
	}
}

// --- RAID0 ---

func TestRAID0Validation(t *testing.T) {
	cases := []struct {
		m         int
		cap, unit int64
	}{
		{0, 100, 10}, {2, 0, 10}, {2, 100, 0}, {2, 5, 10},
	}
	for _, c := range cases {
		if _, err := NewRAID0(c.m, c.cap, c.unit); err == nil {
			t.Fatalf("NewRAID0(%v) accepted", c)
		}
	}
}

func TestRAID0RoundRobinStripes(t *testing.T) {
	r0, err := NewRAID0(3, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Capacity() != 900 {
		t.Fatalf("Capacity = %d", r0.Capacity())
	}
	// Stripe units 0,1,2 land on devs 0,1,2; unit 3 wraps to dev 0 at
	// member offset 10.
	for i, want := range []struct {
		dev int
		lba int64
	}{{0, 0}, {1, 0}, {2, 0}, {0, 10}} {
		p, err := r0.Plan(trace.Request{LBA: int64(i) * 10, Sectors: 10, Read: true})
		if err != nil {
			t.Fatal(err)
		}
		op := p.Phases[0][0]
		if op.Dev != want.dev || op.LBA != want.lba {
			t.Fatalf("unit %d → dev %d lba %d, want %+v", i, op.Dev, op.LBA, want)
		}
	}
}

// A one-member stripe set maps its member 1:1, partial last stripe
// unit included.
func TestRAID0OneMemberMapsWholeMember(t *testing.T) {
	r0, err := NewRAID0(1, 1005, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Capacity() != 1005 || r0.MemberExtent() != 1005 {
		t.Fatalf("Capacity %d, MemberExtent %d; want 1005", r0.Capacity(), r0.MemberExtent())
	}
	p, err := r0.Plan(trace.Request{LBA: 995, Sectors: 10, Read: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Phases[0] {
		if op.Dev != 0 || op.LBA < 995 || op.LBA+int64(op.Sectors) > 1005 {
			t.Fatalf("op %+v not 1:1 within [995,1005)", op)
		}
	}
	if _, err := r0.Plan(trace.Request{LBA: 1000, Sectors: 6, Read: true}); err == nil {
		t.Fatal("request past the member accepted")
	}
}

func TestRAID0LargeRequestFansOut(t *testing.T) {
	r0, _ := NewRAID0(4, 1000, 8)
	p, err := r0.Plan(trace.Request{LBA: 4, Sectors: 28, Read: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Phases[0]
	total := 0
	devs := map[int]bool{}
	for _, op := range ops {
		total += op.Sectors
		devs[op.Dev] = true
	}
	if total != 28 {
		t.Fatalf("ops cover %d sectors, want 28", total)
	}
	if len(devs) < 4 {
		t.Fatalf("28-sector request touched %d devices, want 4", len(devs))
	}
}

// Property: RAID0 plans cover exactly the requested range with no
// overlap per device, and member addresses stay within member capacity.
func TestPropertyRAID0PlanCoverage(t *testing.T) {
	r0, _ := NewRAID0(5, 10000, 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		req := trace.Request{
			LBA:     rng.Int63n(r0.Capacity() - 512),
			Sectors: 1 + rng.Intn(512),
			Read:    true,
		}
		p, err := r0.Plan(req)
		if err != nil {
			return false
		}
		total := 0
		for _, op := range p.Phases[0] {
			if op.LBA < 0 || op.LBA+int64(op.Sectors) > 10000 {
				return false
			}
			total += op.Sectors
		}
		return total == req.Sectors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- RAID1 ---

func TestRAID1ReadsAlternateWritesMirror(t *testing.T) {
	r1, err := NewRAID1(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r1.Plan(trace.Request{LBA: 0, Sectors: 8, Read: true})
	p2, _ := r1.Plan(trace.Request{LBA: 0, Sectors: 8, Read: true})
	if p1.Phases[0][0].Dev == p2.Phases[0][0].Dev {
		t.Fatalf("consecutive reads hit the same mirror")
	}
	w, _ := r1.Plan(trace.Request{LBA: 10, Sectors: 8, Read: false})
	if len(w.Phases[0]) != 2 {
		t.Fatalf("write fanned to %d mirrors", len(w.Phases[0]))
	}
}

func TestRAID1Validation(t *testing.T) {
	if _, err := NewRAID1(1, 100); err == nil {
		t.Fatalf("1-member mirror accepted")
	}
	if _, err := NewRAID1(2, 0); err == nil {
		t.Fatalf("zero capacity accepted")
	}
}

// --- RAID5 ---

func TestRAID5CapacityAndValidation(t *testing.T) {
	if _, err := NewRAID5(2, 100, 10); err == nil {
		t.Fatalf("2-member RAID5 accepted")
	}
	r5, err := NewRAID5(5, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Capacity() != 4000 {
		t.Fatalf("Capacity = %d, want 4000", r5.Capacity())
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	seen := map[int]bool{}
	for row := int64(0); row < 4; row++ {
		seen[r5.ParityDev(row)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("parity used %d devices over 4 rows, want 4", len(seen))
	}
}

func TestRAID5ReadAvoidsParity(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	for lba := int64(0); lba < 300; lba += 10 {
		p, err := r5.Plan(trace.Request{LBA: lba, Sectors: 10, Read: true})
		if err != nil {
			t.Fatal(err)
		}
		op := p.Phases[0][0]
		row := op.LBA / 10
		if op.Dev == r5.ParityDev(row) {
			t.Fatalf("read of lba %d landed on parity dev %d of row %d", lba, op.Dev, row)
		}
	}
}

func TestRAID5WriteIsReadModifyWrite(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	p, err := r5.Plan(trace.Request{LBA: 25, Sectors: 5, Read: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 2 {
		t.Fatalf("write plan has %d phases, want 2", len(p.Phases))
	}
	reads, writes := p.Phases[0], p.Phases[1]
	if len(reads) != 2 || len(writes) != 2 {
		t.Fatalf("RMW ops: %d reads, %d writes", len(reads), len(writes))
	}
	for _, op := range reads {
		if !op.Read {
			t.Fatalf("phase 0 contains a write")
		}
	}
	for _, op := range writes {
		if op.Read {
			t.Fatalf("phase 1 contains a read")
		}
	}
	// Data and parity devices must differ.
	if reads[0].Dev == reads[1].Dev {
		t.Fatalf("data and parity on same device")
	}
}

// Property: every RAID5 data mapping is within bounds and never lands on
// the row's parity device.
func TestPropertyRAID5MappingConsistent(t *testing.T) {
	r5, _ := NewRAID5(5, 100000, 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lba := rng.Int63n(r5.Capacity())
		row, dev, mlba := r5.locate(lba)
		if dev == r5.ParityDev(row) {
			return false
		}
		return dev >= 0 && dev < 5 && mlba >= 0 && mlba < 100000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// --- Array ---

func TestArrayValidation(t *testing.T) {
	eng := simkit.New()
	j, _ := NewJBOD([]int64{100, 100})
	if _, err := NewArray(nil, nil); err == nil {
		t.Fatalf("nil layout accepted")
	}
	if _, err := NewArray(j, []device.Device{&fakeDisk{s: eng, capacity: 100}}); err == nil {
		t.Fatalf("member-count mismatch accepted")
	}
	if _, err := NewArray(j, []device.Device{nil, nil}); err == nil {
		t.Fatalf("nil members accepted")
	}
}

func TestArrayCompletesAtSlowestMember(t *testing.T) {
	j, _ := NewJBOD([]int64{100, 100})
	eng, a, _ := fakeArray(t, j, []float64{1, 5})
	var doneAt float64
	eng.At(0, func() {
		// Spans both members: completes when the slow one (5 ms) does.
		a.Submit(trace.Request{LBA: 95, Sectors: 10, Read: true}, func(at float64) { doneAt = at })
	})
	eng.Run()
	if doneAt != 5 {
		t.Fatalf("array completion at %v, want 5", doneAt)
	}
	if a.Completed() != 1 || a.Submitted() != 1 {
		t.Fatalf("counters: %d/%d", a.Completed(), a.Submitted())
	}
}

func TestArrayPhasesAreSequential(t *testing.T) {
	r5, _ := NewRAID5(3, 1000, 10)
	eng, a, disks := fakeArray(t, r5, []float64{2, 2, 2})
	var doneAt float64
	eng.At(0, func() {
		a.Submit(trace.Request{LBA: 0, Sectors: 5, Read: false}, func(at float64) { doneAt = at })
	})
	eng.Run()
	// RMW: 2 ms of reads then 2 ms of writes.
	if doneAt != 4 {
		t.Fatalf("RMW completed at %v, want 4", doneAt)
	}
	totalOps := 0
	for _, d := range disks {
		totalOps += len(d.ops)
	}
	if totalOps != 4 {
		t.Fatalf("RMW issued %d member ops, want 4", totalOps)
	}
}

func TestArrayPowerSumsMembers(t *testing.T) {
	j, _ := NewJBOD([]int64{100, 100, 100})
	_, a, _ := fakeArray(t, j, nil)
	b := a.Power(1000)
	if b.Total() != 15 { // 3 members × 5 W
		t.Fatalf("array power %v, want 15", b.Total())
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	j, _ := NewJBOD([]int64{100})
	eng, a, _ := fakeArray(t, j, nil)
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("out-of-range array request did not panic")
			}
		}()
		a.Submit(trace.Request{LBA: 99, Sectors: 5, Read: true}, nil)
	})
	eng.Run()
}

// --- RouteByDisk ---

func TestRouteByDiskForwards(t *testing.T) {
	eng := simkit.New()
	d0 := &fakeDisk{s: eng, latencyMs: 1, capacity: 1000}
	d1 := &fakeDisk{s: eng, latencyMs: 1, capacity: 1000}
	rt, err := NewRouteByDisk([]device.Device{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Members() != 2 || rt.Capacity() != 2000 {
		t.Fatalf("Members/Capacity wrong")
	}
	eng.At(0, func() {
		rt.Submit(trace.Request{Disk: 1, LBA: 7, Sectors: 3, Read: true}, nil)
	})
	eng.Run()
	if len(d0.ops) != 0 || len(d1.ops) != 1 {
		t.Fatalf("routing wrong: %d/%d", len(d0.ops), len(d1.ops))
	}
	if d1.ops[0].Disk != 0 {
		t.Fatalf("forwarded request keeps disk number %d", d1.ops[0].Disk)
	}
	if rt.Power(100).Total() != 10 {
		t.Fatalf("router power %v, want 10", rt.Power(100).Total())
	}
}

func TestRouteByDiskValidation(t *testing.T) {
	if _, err := NewRouteByDisk(nil); err == nil {
		t.Fatalf("empty router accepted")
	}
	if _, err := NewRouteByDisk([]device.Device{nil}); err == nil {
		t.Fatalf("nil member accepted")
	}
	eng := simkit.New()
	rt, _ := NewRouteByDisk([]device.Device{&fakeDisk{s: eng, capacity: 10}})
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("bad disk number did not panic")
			}
		}()
		rt.Submit(trace.Request{Disk: 5, Sectors: 1}, nil)
	})
	eng.Run()
}

// --- RAID10 ---

func TestRAID10Validation(t *testing.T) {
	if _, err := NewRAID10(3, 100, 10); err == nil {
		t.Fatalf("odd member count accepted")
	}
	if _, err := NewRAID10(0, 100, 10); err == nil {
		t.Fatalf("zero members accepted")
	}
	if _, err := NewRAID10(4, 0, 10); err == nil {
		t.Fatalf("zero capacity accepted")
	}
	if _, err := NewRAID10(4, 5, 10); err == nil {
		t.Fatalf("oversized stripe unit accepted")
	}
}

func TestRAID10CapacityAndMapping(t *testing.T) {
	r, err := NewRAID10(4, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity() != 2000 { // 2 pairs x 1000
		t.Fatalf("Capacity = %d, want 2000", r.Capacity())
	}
	if r.MemberExtent() != 1000 {
		t.Fatalf("MemberExtent = %d", r.MemberExtent())
	}
	// A write lands on both halves of one pair.
	p, err := r.Plan(trace.Request{LBA: 0, Sectors: 10, Read: false})
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Phases[0]
	if len(ops) != 2 || ops[0].Dev != 0 || ops[1].Dev != 1 {
		t.Fatalf("write ops %+v", ops)
	}
	// Stripe unit 1 maps to the second pair.
	p2, _ := r.Plan(trace.Request{LBA: 10, Sectors: 10, Read: false})
	if p2.Phases[0][0].Dev != 2 || p2.Phases[0][1].Dev != 3 {
		t.Fatalf("second stripe ops %+v", p2.Phases[0])
	}
}

func TestRAID10ReadsAlternateWithinPair(t *testing.T) {
	r, _ := NewRAID10(2, 1000, 10)
	a, _ := r.Plan(trace.Request{LBA: 0, Sectors: 10, Read: true})
	b, _ := r.Plan(trace.Request{LBA: 0, Sectors: 10, Read: true})
	if a.Phases[0][0].Dev == b.Phases[0][0].Dev {
		t.Fatalf("consecutive reads hit the same mirror half")
	}
}

func TestRAID10DegradedReadUsesTwin(t *testing.T) {
	r, _ := NewRAID10(4, 1000, 10)
	eng, a, disks := fakeArray(t, r, nil)
	if err := a.FailMember(2); err != nil {
		t.Fatal(err)
	}
	done := 0
	eng.At(0, func() {
		for i := 0; i < 8; i++ {
			// Stripe unit 1 (lba 10) lives on pair 1 = members 2,3.
			a.Submit(trace.Request{LBA: 10, Sectors: 10, Read: true},
				func(float64) { done++ })
		}
	})
	eng.Run()
	if done != 8 {
		t.Fatalf("completed %d of 8 degraded reads", done)
	}
	if len(disks[2].ops) != 0 {
		t.Fatalf("failed half received ops")
	}
	if len(disks[3].ops) != 8 {
		t.Fatalf("twin served %d of 8", len(disks[3].ops))
	}
}
