package disk

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// smallModel is a fast-to-simulate drive for unit tests.
func smallModel() Model {
	m := BarracudaES()
	m.Name = "test-small"
	m.Geom.Cylinders = 2000
	m.Geom.Zones = 4
	m.Geom.OuterSPT = 300
	m.Geom.InnerSPT = 200
	return m
}

func newDrive(t testing.TB, m Model, opts Options) (*simkit.Engine, *Drive) {
	t.Helper()
	eng := simkit.New()
	d, err := New(eng, m, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, d
}

func TestNamedModelsValidate(t *testing.T) {
	for _, m := range []Model{BarracudaES(), Drive10K18GB(), Drive10K37GB(), Drive7200x36GB()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestNamedModelCapacities(t *testing.T) {
	cases := []struct {
		m      Model
		wantGB float64
	}{
		{BarracudaES(), 750},
		{Drive10K18GB(), 19.07},
		{Drive10K37GB(), 37.17},
		{Drive7200x36GB(), 35.96},
	}
	for _, tc := range cases {
		eng := simkit.New()
		d, err := New(eng, tc.m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.m.Name, err)
		}
		gotGB := float64(d.Geometry().CapacityBytes()) / 1e9
		if gotGB < tc.wantGB*0.93 || gotGB > tc.wantGB*1.07 {
			t.Errorf("%s capacity %.2f GB, want within 7%% of %.2f GB",
				tc.m.Name, gotGB, tc.wantGB)
		}
	}
}

func TestModelValidation(t *testing.T) {
	for name, c := range map[string]struct {
		edit func(*Model)
		want string // substring of the error; "" means valid
	}{
		"rpm 1":        {func(m *Model) { m.RPM = 1 }, ""},
		"rpm 1e6":      {func(m *Model) { m.RPM = 1e6 }, ""},
		"rpm 0":        {func(m *Model) { m.RPM = 0 }, "RPM 0 outside [1, 1e+06]"},
		"rpm NaN":      {func(m *Model) { m.RPM = math.NaN() }, "RPM NaN outside"},
		"rpm +Inf":     {func(m *Model) { m.RPM = math.Inf(1) }, "RPM +Inf outside"},
		"rpm -Inf":     {func(m *Model) { m.RPM = math.Inf(-1) }, "RPM -Inf outside"},
		"rpm 1e6+1":    {func(m *Model) { m.RPM = 1e6 + 1 }, "RPM 1.000001e+06 outside"},
		"seek curve":   {func(m *Model) { m.AvgSeekMs = m.SingleCylMs }, "AvgMs"},
		"neg overhead": {func(m *Model) { m.ControllerOverheadMs = -1 }, "overheads"},
	} {
		m := smallModel()
		c.edit(&m)
		err := m.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestWithRPM(t *testing.T) {
	m := BarracudaES().WithRPM(4200)
	if m.RPM != 4200 {
		t.Fatalf("WithRPM did not change RPM")
	}
	if m.Name != "Barracuda-ES-750/4200" {
		t.Fatalf("WithRPM name = %q", m.Name)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("reduced-RPM model invalid: %v", err)
	}
}

func TestSingleRequestServiceTime(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	var doneAt float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 1e5, Sectors: 8, Read: true}, func(at float64) { doneAt = at })
	})
	eng.Run()
	if doneAt <= 0 {
		t.Fatalf("request never completed")
	}
	// Bounds: at least overhead, at most overhead + full stroke + one
	// full revolution + generous transfer allowance.
	min := m.ControllerOverheadMs
	max := m.ControllerOverheadMs + m.FullStrokeMs + 60000/m.RPM + 5
	if doneAt < min || doneAt > max {
		t.Fatalf("service time %v outside [%v, %v]", doneAt, min, max)
	}
	if d.Snapshot().Completed != 1 {
		t.Fatalf("Completed = %d, want 1", d.Snapshot().Completed)
	}
}

func TestCacheHitIsFast(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	var first, second float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 5000, Sectors: 8, Read: true}, func(at float64) {
			first = at
			// Re-read the same blocks: now cached.
			d.Submit(trace.Request{LBA: 5000, Sectors: 8, Read: true}, func(at2 float64) {
				second = at2 - first
			})
		})
	})
	eng.Run()
	if d.Snapshot().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", d.Snapshot().CacheHits)
	}
	if math.Abs(second-m.CacheHitMs) > 1e-9 {
		t.Fatalf("cache hit latency %v, want %v", second, m.CacheHitMs)
	}
	if first <= m.CacheHitMs {
		t.Fatalf("first (mechanical) access latency %v suspiciously fast", first)
	}
}

func TestWritesAlwaysGoToMedia(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	var wrote, reread float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 7000, Sectors: 8, Read: false}, func(at float64) {
			wrote = at
			// Writing again must hit the media again (write-through).
			d.Submit(trace.Request{LBA: 7000, Sectors: 8, Read: false}, func(at2 float64) {
				reread = at2 - wrote
			})
		})
	})
	eng.Run()
	if d.Snapshot().CacheHits != 0 {
		t.Fatalf("a write was served from cache")
	}
	if reread <= m.CacheHitMs {
		t.Fatalf("second write latency %v: write-through not modeled", reread)
	}
}

func TestWrittenDataReadableFromCache(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	hits := uint64(0)
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 9000, Sectors: 8, Read: false}, func(float64) {
			d.Submit(trace.Request{LBA: 9000, Sectors: 8, Read: true}, func(float64) {
				hits = d.Snapshot().CacheHits
			})
		})
	})
	eng.Run()
	if hits != 1 {
		t.Fatalf("read after write not served from cache (hits=%d)", hits)
	}
}

func TestSequentialStreamHitsReadAhead(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	// 16 back-to-back sequential reads of 32 sectors: after the first
	// miss (which stages 32+256 sectors), the next several hit.
	for i := 0; i < 16; i++ {
		lba := int64(i * 32)
		eng.At(float64(i)*30, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 32, Read: true}, nil)
		})
	}
	eng.Run()
	if d.Snapshot().CacheHits < 6 {
		t.Fatalf("sequential stream got only %d cache hits", d.Snapshot().CacheHits)
	}
}

func TestSeekScaleZeroEliminatesSeeks(t *testing.T) {
	m := smallModel()
	var seekSum float64
	eng, d := newDrive(t, m, Options{
		SeekScale: ZeroedScale,
		OnService: func(s, r, x float64) { seekSum += s },
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		at := float64(i) * 25
		lba := rng.Int63n(d.Capacity() - 64)
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
		})
	}
	eng.Run()
	if seekSum != 0 {
		t.Fatalf("S=0 drive accumulated %v ms of seek", seekSum)
	}
	if d.Power(eng.Now()).Watts[power.Seek] != 0 {
		t.Fatalf("S=0 drive accounted seek energy")
	}
}

func TestRotScaleHalvesLatency(t *testing.T) {
	run := func(scale float64) float64 {
		eng := simkit.New()
		var rotSum float64
		d, err := New(eng, smallModel(), Options{
			RotScale:  scale,
			OnService: func(s, r, x float64) { rotSum += r },
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			at := float64(i) * 25
			lba := rng.Int63n(d.Capacity() - 64)
			eng.At(at, func() {
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
			})
		}
		eng.Run()
		return rotSum
	}
	full := run(0) // default 1.0
	half := run(0.5)
	// Halving the per-request latency halves the sum only approximately,
	// because SPTF picks different requests; allow a loose band.
	if half > full*0.75 || half <= 0 {
		t.Fatalf("(1/2)R rotational time %v vs full %v: scaling ineffective", half, full)
	}
}

func TestFCFSCompletesInArrivalOrder(t *testing.T) {
	cfg := sched.Config{Policy: sched.FCFS}
	eng, d := newDrive(t, smallModel(), Options{Sched: &cfg})
	var order []int
	rng := rand.New(rand.NewSource(3))
	eng.At(0, func() {
		for i := 0; i < 20; i++ {
			i := i
			lba := rng.Int63n(d.Capacity() - 64)
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, func(float64) {
				order = append(order, i)
			})
		}
	})
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FCFS completion order %v", order)
		}
	}
}

func TestSPTFOutperformsFCFSOnBacklog(t *testing.T) {
	run := func(policy sched.Policy) float64 {
		cfg := sched.Config{Policy: policy, Window: 0, MaxAgeMs: 0}
		eng, d := newDrive(t, smallModel(), Options{Sched: &cfg})
		rng := rand.New(rand.NewSource(4))
		var total float64
		n := 200
		eng.At(0, func() {
			for i := 0; i < n; i++ {
				lba := rng.Int63n(d.Capacity() - 64)
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, func(at float64) {
					total += at
				})
			}
		})
		eng.Run()
		return total / float64(n)
	}
	fcfs := run(sched.FCFS)
	sptf := run(sched.SPTF)
	if sptf >= fcfs {
		t.Fatalf("SPTF mean response %v not better than FCFS %v", sptf, fcfs)
	}
}

func TestPowerBreakdownSane(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		at := float64(i) * 15
		lba := rng.Int63n(d.Capacity() - 64)
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: rng.Intn(2) == 0}, nil)
		})
	}
	eng.Run()
	b := d.Power(eng.Now())
	if b.Total() < d.PowerModel().IdlePower()*0.95 {
		t.Fatalf("average power %v below idle %v", b.Total(), d.PowerModel().IdlePower())
	}
	if b.Total() > d.PowerModel().PeakPower() {
		t.Fatalf("average power %v above peak %v", b.Total(), d.PowerModel().PeakPower())
	}
	for _, m := range power.Modes {
		if b.Watts[m] < 0 {
			t.Fatalf("negative power in mode %v", m)
		}
	}
	if b.Watts[power.Seek] == 0 || b.Watts[power.RotLatency] == 0 {
		t.Fatalf("random workload produced no seek/rotational energy: %+v", b.Watts)
	}
}

func TestSubmitBeyondCapacityPanics(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("out-of-range request did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: d.Capacity(), Sectors: 1, Read: true}, nil)
	})
	eng.Run()
}

// TestInvalidScaleRejected checks that New refuses a negative (other
// than ZeroedScale), NaN or infinite seek or rotation scale with an
// error naming the field, instead of panicking or running with NaN
// positioning costs that a cost-minimizing dispatch cannot order.
func TestInvalidScaleRejected(t *testing.T) {
	for _, field := range []string{"SeekScale", "RotScale"} {
		for _, s := range []float64{-0.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
			opts := Options{SeekScale: s}
			if field == "RotScale" {
				opts = Options{RotScale: s}
			}
			_, err := New(simkit.New(), smallModel(), opts)
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %v: New error %v, want one naming %s", field, s, err, field)
			}
		}
	}
	for _, s := range []float64{0, ZeroedScale, 0.25, 3} {
		if _, err := New(simkit.New(), smallModel(), Options{SeekScale: s, RotScale: s}); err != nil {
			t.Errorf("scale %v rejected: %v", s, err)
		}
	}
}

// TestInvalidSchedRejected checks that New refuses a dispatch config
// naming an unknown policy, a negative window or a bad age cap, and a
// distance-ordered policy on several arms, with an error naming the
// field, instead of running some other policy.
func TestInvalidSchedRejected(t *testing.T) {
	for _, c := range []struct {
		opts  Options
		field string
	}{
		{Options{Sched: &sched.Config{Policy: 9}}, "Sched.Policy"},
		{Options{Sched: &sched.Config{Policy: sched.SPTF, Window: -1}}, "Sched.Window"},
		{Options{Sched: &sched.Config{Policy: sched.SPTF, MaxAgeMs: -5}}, "Sched.MaxAgeMs"},
		{Options{Sched: &sched.Config{Policy: sched.SPTF, MaxAgeMs: math.NaN()}}, "Sched.MaxAgeMs"},
		{Options{Sched: &sched.Config{Policy: sched.SSTF}, Actuators: 2}, "Sched.Policy"},
		{Options{Sched: &sched.Config{Policy: sched.CLOOK}, Actuators: 4}, "Sched.Policy"},
	} {
		_, err := New(simkit.New(), smallModel(), c.opts)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: New error %v, want one naming %s", *c.opts.Sched, err, c.field)
		}
	}
	for _, p := range []sched.Policy{sched.FCFS, sched.SSTF, sched.SPTF, sched.CLOOK} {
		if _, err := New(simkit.New(), smallModel(), Options{Sched: &sched.Config{Policy: p}}); err != nil {
			t.Errorf("%v rejected on one arm: %v", p, err)
		}
	}
}

// TestBoundedSPTFMatchesExhaustive checks the drive's branch-and-bound
// SPTF cost against the full positioning cost: on random arm positions,
// scales (ZeroedScale included) and queues with duplicate LBAs, the
// bounded Pick must name the same entry at the same cost, bit for bit.
func TestBoundedSPTFMatchesExhaustive(t *testing.T) {
	scales := []float64{0, 0.5, 2, ZeroedScale}
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 500; c++ {
		eng := simkit.New()
		now := rng.Float64() * 1e5
		eng.RunUntil(now)
		d, err := New(eng, smallModel(), Options{
			SeekScale: scales[rng.Intn(len(scales))],
			RotScale:  scales[rng.Intn(len(scales))],
		})
		if err != nil {
			t.Fatal(err)
		}
		d.arms[0].cyl = rng.Intn(d.geo.Cylinders())
		pool := make([]int64, 1+rng.Intn(10))
		for i := range pool {
			pool[i] = rng.Int63n(d.Capacity())
		}
		for i := rng.Intn(200); i >= 0; i-- {
			lba := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				lba = rng.Int63n(d.Capacity())
			}
			*d.enqueue(d.queue, now) = pending{loc: d.geo.Locate(lba), obsReq: uint64(i)}
		}
		d.costStart = now + d.model.ControllerOverheadMs
		got, _ := d.queue.Pick(now, d.queueCost)
		want, _ := d.queue.Pick(now, func(i *int32, _ float64) float64 {
			p := &d.slab[*i]
			seekMs := d.curve.Time(d.arms[0].cyl-p.loc.Cyl) * d.seekScale
			atTrack := now + d.model.ControllerOverheadMs + seekMs
			return seekMs + d.rot.LatencyTo(p.loc.Angle, atTrack)*d.rotScale
		})
		gotReq, wantReq := d.slab[got.Item].obsReq, d.slab[want.Item].obsReq
		if gotReq != wantReq || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("case %d: bounded pick %d at %v, exhaustive %d at %v",
				c, gotReq, got.Cost, wantReq, want.Cost)
		}
	}
}

func TestQueueHighWaterMark(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			d.Submit(trace.Request{LBA: int64(i) * 1000, Sectors: 8, Read: false}, nil)
		}
	})
	eng.Run()
	if d.Snapshot().Queue.Max < 9 {
		t.Fatalf("MaxQueue = %d, want >= 9", d.Snapshot().Queue.Max)
	}
	if d.Snapshot().Queue.Len != 0 {
		t.Fatalf("queue not drained: %d", d.Snapshot().Queue.Len)
	}
	if d.Busy() {
		t.Fatalf("drive busy after drain")
	}
}

func TestAllRequestsComplete(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	rng := rand.New(rand.NewSource(6))
	const n = 500
	completions := 0
	for i := 0; i < n; i++ {
		at := rng.Float64() * 2000
		lba := rng.Int63n(d.Capacity() - 300)
		sectors := 1 + rng.Intn(256)
		read := rng.Intn(2) == 0
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: sectors, Read: read},
				func(float64) { completions++ })
		})
	}
	eng.Run()
	if completions != n {
		t.Fatalf("%d of %d requests completed", completions, n)
	}
	if d.Snapshot().Completed != n {
		t.Fatalf("Completed() = %d, want %d", d.Snapshot().Completed, n)
	}
}

func TestLowerRPMSlowsService(t *testing.T) {
	mean := func(m Model) float64 {
		eng := simkit.New()
		d, err := New(eng, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var sum float64
		const n = 300
		for i := 0; i < n; i++ {
			at := float64(i) * 40
			lba := rng.Int63n(d.Capacity() - 64)
			eng.At(at, func() {
				start := eng.Now()
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, func(done float64) {
					sum += done - start
				})
			})
		}
		eng.Run()
		return sum / n
	}
	fast := mean(smallModel())
	slow := mean(smallModel().WithRPM(4200))
	if slow <= fast {
		t.Fatalf("4200 RPM mean response %v not above 7200 RPM %v", slow, fast)
	}
	// The gap should be roughly the growth in average rotational latency
	// (~2.98 ms); accept a broad band.
	if slow-fast < 1 || slow-fast > 8 {
		t.Fatalf("RPM slowdown %v ms outside plausible band", slow-fast)
	}
}

func TestTransferTimeProportionalToSize(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	_ = eng
	small := d.model.TransferTime(d.geo, d.rot, 0, 30)
	large := d.model.TransferTime(d.geo, d.rot, 0, 300) // spans tracks
	if large <= small {
		t.Fatalf("transfer time not increasing with size")
	}
	ratio := large / small
	if ratio < 8 || ratio > 14 {
		t.Fatalf("10x transfer took %vx the time, want ~10x (+switch overheads)", ratio)
	}
}

func TestMeanRandomServiceTimeMatchesTheory(t *testing.T) {
	// For random single-sector reads on an idle drive, mean service ≈
	// overhead + mean seek + half a revolution. This anchors the whole
	// mechanical model.
	m := smallModel()
	eng, d := newDrive(t, m, Options{})
	rng := rand.New(rand.NewSource(8))
	var sum float64
	const n = 400
	for i := 0; i < n; i++ {
		at := float64(i) * 60 // far apart: no queueing
		lba := rng.Int63n(d.Capacity() - 8)
		eng.At(at, func() {
			start := eng.Now()
			d.Submit(trace.Request{LBA: lba, Sectors: 1, Read: false}, func(done float64) {
				sum += done - start
			})
		})
	}
	eng.Run()
	got := sum / n
	want := m.ControllerOverheadMs + 8.5*0.72 + 60000/m.RPM/2
	// Random seeks across a 2000-cyl geometry average less than the
	// datasheet third-stroke; accept ±35%.
	if math.Abs(got-want) > want*0.35 {
		t.Fatalf("mean random service %v ms, want ~%v", got, want)
	}
}

// TestMediaServiceAllocatesNothing pins the allocation-free service
// path: once the event heap and queue are warm, a media-miss request's
// submit, dispatch, SPTF scan and completion allocate nothing (the
// completion event is bound once per drive, not built per request).
func TestMediaServiceAllocatesNothing(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	rng := rand.New(rand.NewSource(3))
	var lba int64
	submit := func() { d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil) }
	cycle := func() {
		lba = rng.Int63n(d.Capacity() - 64)
		eng.After(5, submit)
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("media service allocated %v times per request, want 0", n)
	}
}

// TestCacheHitAllocatesNothing pins the pooled cache-hit completion:
// once warm, a read hit allocates nothing, through Submit and through
// SubmitBackground, and its done callback still runs.
func TestCacheHitAllocatesNothing(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	r := trace.Request{LBA: 5000, Sectors: 8, Read: true}
	d.Submit(r, nil) // the miss stages the run in the cache
	eng.Run()
	completions := 0
	done := func(float64) { completions++ }
	for _, submit := range []struct {
		name string
		fn   func(trace.Request, device.Done)
	}{{"Submit", d.Submit}, {"SubmitBackground", d.SubmitBackground}} {
		read := func() { submit.fn(r, done) }
		hit := func() {
			eng.After(5, read)
			eng.Run()
		}
		hit()
		hits, before := d.cacheHits, completions
		if n := testing.AllocsPerRun(200, hit); n != 0 {
			t.Fatalf("%s: a cache hit allocated %v times, want 0", submit.name, n)
		}
		if d.cacheHits-hits != 201 || completions-before != 201 {
			t.Fatalf("%s: %d hits and %d completions for 201 reads",
				submit.name, d.cacheHits-hits, completions-before)
		}
	}
}

// TestDeepQueueReusesStorage pushes 300 requests at once, far deeper
// than the 16-entry ring the drive's queue starts with, and drains them
// twice: the first drain grows the slab and the ring, and the second
// reuses both, allocating nothing.
func TestDeepQueueReusesStorage(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{})
	rng := rand.New(rand.NewSource(4))
	lbas := make([]int64, 300)
	for i := range lbas {
		lbas[i] = rng.Int63n(d.Capacity() - 64)
	}
	burst := func() {
		for _, lba := range lbas {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
		}
	}
	drain := func() {
		eng.After(5, burst)
		eng.Run()
	}
	drain()
	if got := d.Snapshot().Queue.Max; got < 299 {
		t.Fatalf("queue peaked at %d, want 299 or more", got)
	}
	if n := testing.AllocsPerRun(1, drain); n != 0 {
		t.Fatalf("a second deep drain allocated %v times, want 0", n)
	}
}

// BenchmarkDriveThroughput times a burst of 8 random writes arriving at
// once and drained through the SPTF queue; one op is one burst. The
// harness allocates nothing per op, so allocs/op counts the drive's own
// per-request allocations: zero, where a per-request completion closure
// would show as 8.
func BenchmarkDriveThroughput(b *testing.B) {
	m := smallModel()
	eng := simkit.New()
	d, err := New(eng, m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var lbas [8]int64
	burst := func() {
		for _, lba := range lbas {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range lbas {
			lbas[k] = rng.Int63n(d.Capacity() - 64)
		}
		eng.After(5, burst)
		eng.Run()
	}
}

func TestCLOOKServesAscendingCylinders(t *testing.T) {
	cfg := sched.Config{Policy: sched.CLOOK}
	eng, d := newDrive(t, smallModel(), Options{Sched: &cfg})
	// A backlog of requests at scattered cylinders, submitted at once.
	capacity := d.Capacity()
	var order []int
	eng.At(0, func() {
		for _, cyl := range []int64{1500, 100, 900, 400, 1800, 700} {
			lba := cyl * capacity / 2000
			c := d.Geometry().CylOf(lba)
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
				func(float64) { order = append(order, c) })
		}
	})
	eng.Run()
	if len(order) != 6 {
		t.Fatalf("completed %d", len(order))
	}
	// The first request dispatches alone (nothing else is queued yet);
	// the rest must follow circular ascending order: at most one
	// descent (the wrap from the top of the scan back to the bottom).
	descents := 0
	for i := 2; i < len(order); i++ {
		if order[i] < order[i-1] {
			descents++
		}
	}
	if descents > 1 {
		t.Fatalf("C-LOOK order not a single circular scan: %v", order)
	}
}

func TestCLOOKReducesSeekVersusFCFS(t *testing.T) {
	totalSeek := func(policy sched.Policy) float64 {
		cfg := sched.Config{Policy: policy}
		var seek float64
		eng, d := newDrive(t, smallModel(), Options{
			Sched:     &cfg,
			OnService: func(s, r, x float64) { seek += s },
		})
		rng := rand.New(rand.NewSource(12))
		eng.At(0, func() {
			for i := 0; i < 100; i++ {
				lba := rng.Int63n(d.Capacity() - 64)
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
			}
		})
		eng.Run()
		return seek
	}
	fcfs := totalSeek(sched.FCFS)
	clook := totalSeek(sched.CLOOK)
	if clook >= fcfs/2 {
		t.Fatalf("C-LOOK total seek %v not well below FCFS %v", clook, fcfs)
	}
}

func TestSerpentineGeometryDriveEndToEnd(t *testing.T) {
	m := smallModel()
	m.Geom.Serpentine = true
	eng, d := newDrive(t, m, Options{})
	rng := rand.New(rand.NewSource(14))
	done := 0
	// Mixed random and sequential work on the serpentine layout.
	next := int64(0)
	for i := 0; i < 300; i++ {
		at := float64(i) * 15
		var lba int64
		if i%3 == 0 {
			lba = next
			next += 32
			if next > d.Capacity()/2 {
				next = 0
			}
		} else {
			lba = rng.Int63n(d.Capacity() - 64)
		}
		sectors := 8 + rng.Intn(56)
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: sectors, Read: i%2 == 0},
				func(float64) { done++ })
		})
	}
	eng.Run()
	if done != 300 {
		t.Fatalf("completed %d of 300 on serpentine layout", done)
	}
	if d.Snapshot().CacheHits == 0 {
		t.Fatalf("sequential stream got no cache hits on serpentine layout")
	}
}
