package raid

import (
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/trace"
)

// partTrace builds a deterministic random stream of striped requests.
func partTrace(seed int64, n int, capacity int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]trace.Request, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * 2
		tr[i] = trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity - 600),
			Sectors:   1 + rng.Intn(512),
			Read:      rng.Intn(100) < 60,
		}
	}
	return tr
}

// linkedArray builds layout as a partitioned array over fakeDisks with
// op-dependent service times, each exactly as large as the layout's
// member extent when the layout reports one.
func linkedArray(t *testing.T, layout Layout, workers int) (*par.Engine, *Array, []*fakeDisk) {
	t.Helper()
	capacity := int64(1 << 40)
	if sz, ok := layout.(MemberSizer); ok {
		capacity = sz.MemberExtent()
	}
	pe := par.New(layout.Members()+1, par.Options{Workers: workers})
	disks := make([]*fakeDisk, layout.Members())
	a, err := NewPartitioned(pe, layout, bus.DefaultLink(), 512, func(s simkit.Scheduler, i int) (device.Device, error) {
		disks[i] = &fakeDisk{s: s, capacity: capacity}
		return disks[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pe, a, disks
}

// couplings builds a layout into an array with each coupling, returning
// the runner that drives it and the members.
var couplings = []struct {
	name  string
	build func(t *testing.T, layout Layout) (simkit.Runner, *Array, []*fakeDisk)
}{
	{"direct", func(t *testing.T, layout Layout) (simkit.Runner, *Array, []*fakeDisk) {
		return fakeArray(t, layout, nil)
	}},
	{"linked", func(t *testing.T, layout Layout) (simkit.Runner, *Array, []*fakeDisk) {
		pe, a, disks := linkedArray(t, layout, 1)
		return pe.Runner(0), a, disks
	}},
}

// buildPartitioned assembles a partitioned array over fake members:
// RAID-5 over 1<<16-sector members when raid5 is set (the degraded and
// rebuild paths need redundancy), RAID-0 over 1<<20 otherwise.
func buildPartitioned(t *testing.T, raid5 bool, members, workers int) (*par.Engine, *Array) {
	t.Helper()
	var layout Layout
	var err error
	if raid5 {
		layout, err = NewRAID5(members, 1<<16, 128)
	} else {
		layout, err = NewRAID0(members, 1<<20, 128)
	}
	if err != nil {
		t.Fatal(err)
	}
	pe, a, _ := linkedArray(t, layout, workers)
	return pe, a
}

// replayPartitioned submits the trace on the controller LP and returns
// per-request response times.
func replayPartitioned(pe *par.Engine, a *Array, tr []trace.Request) []float64 {
	resp := make([]float64, len(tr))
	ctrl := pe.LP(0)
	for i, r := range tr {
		i, r := i, r
		ctrl.At(r.ArrivalMs, func() {
			a.Submit(r, func(at float64) { resp[i] = at - r.ArrivalMs })
		})
	}
	pe.Run()
	return resp
}

// TestPartitionedWorkerIdentity is the array-level determinism check:
// a RAID-5 of 40 members, one of which dies and is rebuilt under load,
// replays the same workload with one worker and with eight and produces
// bit-identical completion times, rebuild results and snapshots. Every
// third request spans a full stripe, and the rebuild reads every
// survivor at once, so many windows have more busy LPs than run
// inline: at eight workers those go through the pool, where member LPs
// run on different goroutines. Run under -race this exercises the
// ownership partition of the link-reservation state (outBusy by the
// controller, retBusy by the members), the pooled link-op records and
// the rebuild's chunk records.
func TestPartitionedWorkerIdentity(t *testing.T) {
	const members = 40
	run := func(workers int) (outcome, *par.Engine) {
		pe, a := buildPartitioned(t, true, members, workers)
		tr := partTrace(41, 600, a.Capacity())
		stripe := int64(members-1) * 128
		for i := 0; i < len(tr); i += 3 {
			tr[i].LBA = tr[i].LBA / stripe * stripe
			tr[i].Sectors = int(stripe)
		}
		trial := deathTrial{dead: 7, deathMs: 150, rebuildMs: 250, depth: 4, chunk: 1 << 12, tr: tr}
		return trial.play(t, pe.Runner(0), a), pe
	}
	want, ref := run(1)
	got, pe := run(8)
	got.mustMatch(t, "8 workers vs 1", want)
	if ref.Windows() != pe.Windows() || ref.WideWindows() != pe.WideWindows() {
		t.Fatalf("windows %d (%d wide) with 1 worker, %d (%d wide) with 8",
			ref.Windows(), ref.WideWindows(), pe.Windows(), pe.WideWindows())
	}
	if want.rebuilt < 0 {
		t.Fatalf("the rebuild never finished")
	}
	if ref.WideWindows() < 100 {
		t.Fatalf("%d of %d windows wide enough for the pool, want at least 100", ref.WideWindows(), ref.Windows())
	}
}

// TestPartitionedCompletes checks the request lifecycle bookkeeping and
// that responses include the link's round-trip floor.
func TestPartitionedCompletes(t *testing.T) {
	pe, a := buildPartitioned(t, false, 4, 1)
	tr := partTrace(42, 200, a.Capacity())
	resp := replayPartitioned(pe, a, tr)

	s := a.Snapshot()
	if s.Submitted != uint64(len(tr)) || s.Completed != uint64(len(tr)) {
		t.Fatalf("submitted/completed %d/%d, want %d", s.Submitted, s.Completed, len(tr))
	}
	if len(s.Children) != 0 {
		// fakeDisk is not Instrumented; only instrumented members roll up.
		t.Fatalf("unexpected children %d", len(s.Children))
	}
	if s.Counters["windows"] != pe.Windows() {
		t.Fatalf("windows counter %d vs engine %d", s.Counters["windows"], pe.Windows())
	}
	floor := 2 * bus.DefaultLink().OverheadMs
	for i, r := range resp {
		if r < floor {
			t.Fatalf("request %d responded in %g ms, below the %g ms link round trip", i, r, floor)
		}
	}
}

// TestPartitionedValidation pins the constructor's error contract.
func TestPartitionedValidation(t *testing.T) {
	layout, err := NewRAID0(4, 1<<20, 128)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s simkit.Scheduler, i int) (device.Device, error) {
		return &fakeDisk{s: s, capacity: 1 << 20}, nil
	}
	ok := bus.DefaultLink()

	cases := []struct {
		name        string
		lps         int
		layout      Layout
		link        bus.LinkSpec
		sectorBytes int64
		mk          MemberFunc
	}{
		{"nil layout", 5, nil, ok, 512, mk},
		{"bad link", 5, layout, bus.LinkSpec{BandwidthMBps: -1}, 512, mk},
		{"zero lookahead link", 5, layout, bus.LinkSpec{BandwidthMBps: 300}, 512, mk},
		{"bad sector size", 5, layout, ok, 0, mk},
		{"wrong LP count", 4, layout, ok, 512, mk},
		{"nil member", 5, layout, ok, 512, func(simkit.Scheduler, int) (device.Device, error) { return nil, nil }},
	}
	for _, c := range cases {
		if _, err := NewPartitioned(par.New(c.lps, par.Options{}), c.layout, c.link, c.sectorBytes, c.mk); err == nil {
			t.Fatalf("%s: no error", c.name)
		}
	}
}
