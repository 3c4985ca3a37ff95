package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/defect"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// diffDrive is what the differential tests drive on the engine and on
// refDrive.
type diffDrive interface {
	device.Device
	device.Instrumented
}

// diffOutcome is what a replay must reproduce bit for bit.
type diffOutcome struct {
	done  []uint64 // Float64bits of each request's completion time
	watts []uint64 // Float64bits of each power mode's average watts
	spans []byte   // the span trace, as JSONL
	snap  obs.Snapshot
}

// diffTrace is a random stream within capacity that mixes the shapes
// the drive paths care about: random reads and writes, sequential runs
// that ride read-ahead, and re-reads of recent ranges that hit the cache.
func diffTrace(seed int64, n int, meanGapMs float64, capacity int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]trace.Request, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * meanGapMs
		r := trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity - 300),
			Sectors:   1 + rng.Intn(64),
			Read:      rng.Intn(100) < 60,
		}
		switch k := rng.Intn(10); {
		case i > 0 && k < 2: // sequential continuation
			if prev := tr[i-1]; prev.End()+int64(r.Sectors) <= capacity {
				r.LBA = prev.End()
			}
		case i > 8 && k < 4: // re-read of a recent range
			prev := tr[i-1-rng.Intn(8)]
			r.LBA, r.Sectors, r.Read = prev.LBA, prev.Sectors, true
		}
		tr[i] = r
	}
	return tr
}

// playDiff replays tr on a drive that build attaches to a fresh engine
// with opts (plus a span sink of its own) and records the outcome.
func playDiff(t *testing.T, build func(simkit.Scheduler, disk.Options) (diffDrive, error),
	opts disk.Options, tr []trace.Request) diffOutcome {
	t.Helper()
	sink := &obs.MemorySink{}
	opts.Obs = obs.Options{Sink: sink, Name: "dut"}
	eng := simkit.New()
	d, err := build(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := diffOutcome{done: make([]uint64, len(tr))}
	for i, r := range tr {
		i, r := i, r
		eng.At(r.ArrivalMs, func() {
			d.Submit(r, func(at float64) { o.done[i] = math.Float64bits(at) })
		})
	}
	eng.Run()
	b := d.Power(eng.Now())
	for _, m := range power.Modes {
		o.watts = append(o.watts, math.Float64bits(b.Watts[m]))
	}
	var spans bytes.Buffer
	if err := sink.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	o.spans = spans.Bytes()
	o.snap = d.Snapshot()
	return o
}

func buildRef(s simkit.Scheduler, o disk.Options) (diffDrive, error) {
	return newRefDrive(s, smallModel(), o)
}

func buildDisk(s simkit.Scheduler, o disk.Options) (diffDrive, error) {
	return disk.New(s, smallModel(), o)
}

// buildSA1 builds the one-arm DASH point through core.New, whose
// snapshot carries the parallel-drive labels instead of the disk ones.
func buildSA1(s simkit.Scheduler, o disk.Options) (diffDrive, error) {
	o.Actuators = 1
	return New(s, smallModel(), o)
}

// diffCompare reports the first difference between two outcomes;
// snapBytes additionally requires byte-identical snapshots.
func diffCompare(got, want diffOutcome, snapBytes bool) error {
	for i := range want.done {
		if got.done[i] != want.done[i] {
			return fmt.Errorf("request %d completes at %v, reference %v", i,
				math.Float64frombits(got.done[i]), math.Float64frombits(want.done[i]))
		}
	}
	for i, m := range power.Modes {
		if got.watts[i] != want.watts[i] {
			return fmt.Errorf("mode %v: %v W, reference %v W", m,
				math.Float64frombits(got.watts[i]), math.Float64frombits(want.watts[i]))
		}
	}
	if !bytes.Equal(got.spans, want.spans) {
		return fmt.Errorf("span traces differ (%d vs %d bytes)", len(got.spans), len(want.spans))
	}
	g, w := got.snap, want.snap
	if g.Submitted != w.Submitted || g.Completed != w.Completed || g.CacheHits != w.CacheHits || g.Queue != w.Queue {
		return fmt.Errorf("snapshot %+v, reference %+v", g, w)
	}
	if !snapBytes {
		return nil
	}
	gb, err := obs.MarshalSnapshot(g)
	if err != nil {
		return err
	}
	wb, err := obs.MarshalSnapshot(w)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("snapshot bytes differ:\n got %s\nwant %s", gb, wb)
	}
	return nil
}

// diffVariant is one drive configuration the differential tests cross
// with every scheduling policy.
type diffVariant struct {
	name string
	opts func(t *testing.T) disk.Options
}

func diffVariants() []diffVariant {
	plain := func(o disk.Options) func(*testing.T) disk.Options {
		return func(*testing.T) disk.Options { return o }
	}
	return []diffVariant{
		{"plain", plain(disk.Options{})},
		{"defects", func(t *testing.T) disk.Options { return disk.Options{Defects: remappedTable(t)} }},
		{"scaled", plain(disk.Options{SeekScale: 0.5, RotScale: 2})},
		{"S=0", plain(disk.Options{SeekScale: disk.ZeroedScale})},
		{"R=0", plain(disk.Options{RotScale: disk.ZeroedScale, SeekScale: 0.25})},
	}
}

// remappedTable is a defect table over smallModel with a few thousand
// grown defects, so a good share of random requests fragment.
func remappedTable(t *testing.T) *defect.Table {
	t.Helper()
	probe, err := disk.New(simkit.New(), smallModel(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := defect.NewTable(probe.Capacity(), probe.Capacity()/100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for tab.Reallocated() < 6000 {
		_ = tab.Grow(rng.Int63n(tab.UserSectors())) // repeats are refused
	}
	return tab
}

// diffScheds are the dispatch configurations crossed with each variant:
// every policy with the default window and age cap, plus SPTF and C-LOOK
// with a narrow window and a tight cap so forced dispatches happen.
func diffScheds() []sched.Config {
	var out []sched.Config
	for _, p := range []sched.Policy{sched.FCFS, sched.SSTF, sched.SPTF, sched.CLOOK} {
		c := disk.DefaultSchedConfig()
		c.Policy = p
		out = append(out, c)
	}
	out = append(out,
		sched.Config{Policy: sched.SPTF, Window: 4, MaxAgeMs: 40},
		sched.Config{Policy: sched.CLOOK, Window: 8, MaxAgeMs: 60})
	return out
}

// TestDiskDriveMatchesReference is the fold's differential check:
// disk.New must reproduce the pre-fold conventional drive (refDrive) to
// the bit on random traces, under every scheduling policy, with and
// without grown defects, and at the limit
// study's seek and rotation scales — every completion time, every
// per-mode watt, the span trace and the snapshot bytes.
func TestDiskDriveMatchesReference(t *testing.T) {
	for _, v := range diffVariants() {
		for _, sc := range diffScheds() {
			sc := sc
			t.Run(fmt.Sprintf("%s/%v-w%d", v.name, sc.Policy, sc.Window), func(t *testing.T) {
				opts := v.opts(t)
				opts.Sched = &sc
				ref, err := newRefDrive(simkit.New(), smallModel(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var hits, hops uint64
				for k, gap := range []float64{2, 9} {
					tr := diffTrace(int64(100+k), 500, gap, ref.Capacity())
					want := playDiff(t, buildRef, opts, tr)
					got := playDiff(t, buildDisk, opts, tr)
					if err := diffCompare(got, want, true); err != nil {
						t.Fatalf("gap %v ms: %v", gap, err)
					}
					hits += want.snap.CacheHits
					hops += want.snap.Counters["defect_hops"]
				}
				// The traces must reach the paths the variant adds.
				if hits == 0 || (opts.Defects != nil && hops == 0) {
					t.Fatalf("vacuous replays: %d cache hits, %d defect hops", hits, hops)
				}
			})
		}
	}
}

// hcsdTrace is an n-request HC-SD stream: the workload synthesized for
// its multi-disk array, each disk's requests remapped into its own
// region of one high-capacity drive (the paper's §7.1 migration).
func hcsdTrace(tb testing.TB, spec trace.WorkloadSpec, n int) []trace.Request {
	tb.Helper()
	probe, err := disk.New(simkit.New(), disk.Drive10K18GB(), disk.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	offsets := make([]int64, spec.Disks)
	for i := range offsets {
		offsets[i] = int64(i) * probe.Capacity()
	}
	g, err := trace.NewGenerator(spec.WithRequests(n), 1)
	if err != nil {
		tb.Fatal(err)
	}
	var tr []trace.Request
	for s := trace.RemapStream(g, offsets); ; {
		r, ok := s.Next()
		if !ok {
			return tr
		}
		tr = append(tr, r)
	}
}

// BenchmarkOneArmReplay replays the same 8000-request HC-SD streams on
// a Barracuda ES built by disk.New and by the pre-fold refDrive, so the
// two cases' same-run ratio is the one-arm engine's per-request cost
// relative to the conventional drive it replaced. One op is one replay
// of both workloads, drive construction included.
func BenchmarkOneArmReplay(b *testing.B) {
	traces := [][]trace.Request{
		hcsdTrace(b, trace.Websearch(), 8000),
		hcsdTrace(b, trace.Financial(), 8000),
	}
	for _, c := range []struct {
		name  string
		build func(simkit.Scheduler) (diffDrive, error)
	}{
		{"disk.New", func(s simkit.Scheduler) (diffDrive, error) {
			return disk.New(s, disk.BarracudaES(), disk.Options{})
		}},
		{"refDrive", func(s simkit.Scheduler) (diffDrive, error) {
			return newRefDrive(s, disk.BarracudaES(), disk.Options{})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					eng := simkit.New()
					d, err := c.build(eng)
					if err != nil {
						b.Fatal(err)
					}
					next := 0
					var arrive simkit.Event
					arrive = func() {
						r := tr[next]
						if next++; next < len(tr) {
							eng.At(tr[next].ArrivalMs, arrive)
						}
						d.Submit(r, nil)
					}
					eng.At(tr[0].ArrivalMs, arrive)
					eng.Run()
				}
			}
		})
	}
}
