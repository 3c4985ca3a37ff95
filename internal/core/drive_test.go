package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// smallModel mirrors the disk package's fast test drive, with a seek
// curve proportionate to its reduced stroke.
func smallModel() disk.Model {
	m := disk.BarracudaES()
	m.Name = "test-small"
	m.Geom.Cylinders = 2000
	m.Geom.Zones = 4
	m.Geom.OuterSPT = 300
	m.Geom.InnerSPT = 200
	m.SingleCylMs = 0.5
	m.AvgSeekMs = 2.0
	m.FullStrokeMs = 4.0
	return m
}

func newSA(t testing.TB, n int) (*simkit.Engine, *ParallelDrive) {
	t.Helper()
	eng := simkit.New()
	d, err := NewSA(eng, smallModel(), n)
	if err != nil {
		t.Fatalf("NewSA(%d): %v", n, err)
	}
	return eng, d
}

// randomTrace builds a deterministic random request stream within cap.
func randomTrace(seed int64, n int, meanGapMs float64, capacity int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]trace.Request, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * meanGapMs
		tr[i] = trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity - 300),
			Sectors:   1 + rng.Intn(64),
			Read:      rng.Intn(100) < 60,
		}
	}
	return tr
}

// replay submits the trace and returns per-request response times.
func replay(eng *simkit.Engine, submit func(trace.Request, func(float64)), tr []trace.Request) []float64 {
	resp := make([]float64, len(tr))
	for i, r := range tr {
		i, r := i, r
		eng.At(r.ArrivalMs, func() {
			submit(r, func(at float64) { resp[i] = at - r.ArrivalMs })
		})
	}
	eng.Run()
	return resp
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestConfigValidation(t *testing.T) {
	eng := simkit.New()
	bad := []Config{
		{Actuators: 0},
		{Actuators: 2, Channels: -1},
		{Actuators: 2, Channels: 3},
	}
	for _, cfg := range bad {
		if _, err := New(eng, smallModel(), cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
}

// TestConfigRejectsUnsupportedPolicy pins that only FCFS and SPTF are
// accepted: the SA(n) dispatch costs every queued request by its best
// idle arm's positioning time, so SSTF or C-LOOK would silently run SPTF.
func TestConfigRejectsUnsupportedPolicy(t *testing.T) {
	for _, c := range []struct {
		policy sched.Policy
		ok     bool
	}{
		{sched.FCFS, true},
		{sched.SPTF, true},
		{sched.SSTF, false},
		{sched.CLOOK, false},
		{sched.Policy(99), false},
	} {
		scfg := disk.DefaultSchedConfig()
		scfg.Policy = c.policy
		_, err := New(simkit.New(), smallModel(), Config{Actuators: 2, Sched: &scfg})
		switch {
		case c.ok && err != nil:
			t.Errorf("%v rejected: %v", c.policy, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "Sched.Policy")):
			t.Errorf("%v: New error %v, want one naming Sched.Policy", c.policy, err)
		}
	}
}

// TestConfigRejectsBadScales checks that a negative (other than
// ZeroedScale), NaN or infinite seek or rotation scale is a
// configuration error naming the field, reported before New builds
// anything — a NaN scale would make every positioning cost NaN, which
// no cost-minimizing dispatch can order.
func TestConfigRejectsBadScales(t *testing.T) {
	for _, field := range []string{"SeekScale", "RotScale"} {
		for _, s := range []float64{-0.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{Actuators: 2}
			if field == "SeekScale" {
				cfg.SeekScale = s
			} else {
				cfg.RotScale = s
			}
			_, err := New(simkit.New(), smallModel(), cfg)
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %v: New error %v, want one naming %s", field, s, err, field)
			}
		}
	}
	for _, s := range []float64{0, disk.ZeroedScale, 0.25, 3} {
		if _, err := New(simkit.New(), smallModel(), Config{Actuators: 2, SeekScale: s, RotScale: s}); err != nil {
			t.Errorf("scale %v rejected: %v", s, err)
		}
	}
}

func TestTaxonomyReported(t *testing.T) {
	_, d := newSA(t, 3)
	if got := d.Taxonomy().String(); got != "D1A3S1H1" {
		t.Fatalf("Taxonomy = %s, want D1A3S1H1", got)
	}
	if d.Actuators() != 3 || d.HealthyArms() != 3 {
		t.Fatalf("Actuators=%d HealthyArms=%d, want 3/3", d.Actuators(), d.HealthyArms())
	}
}

// The pivotal consistency test: with one actuator, the DASH drive is
// behaviorally identical to the pre-fold conventional drive (refDrive),
// to the bit, in every configuration TestDiskDriveMatchesReference
// covers: completion times, per-mode watts, spans, and the snapshot's
// request and queue counts (its labels differ by design).
func TestSA1EquivalentToConventionalDrive(t *testing.T) {
	for _, v := range diffVariants() {
		for _, sc := range diffScheds() {
			sc := sc
			opts := v.opts(t)
			opts.Sched = &sc
			probe, err := newRefDrive(simkit.New(), smallModel(), opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := diffTrace(11, 400, 6, probe.Capacity())
			want := playDiff(t, buildRef, opts, tr)
			got := playDiff(t, buildSA1, opts, tr)
			if err := diffCompare(got, want, false); err != nil {
				t.Fatalf("%s/%v: %v", v.name, sc.Policy, err)
			}
		}
	}
}

func TestMoreArmsReduceResponseUnderLoad(t *testing.T) {
	meanResp := func(n int) float64 {
		eng, d := newSA(t, n)
		tr := randomTrace(13, 800, 9, d.Capacity()) // near saturation for SA(1)
		resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
		return mean(resp)
	}
	r1 := meanResp(1)
	r2 := meanResp(2)
	r4 := meanResp(4)
	if !(r2 < r1) {
		t.Fatalf("SA(2) mean %v not below SA(1) %v", r2, r1)
	}
	if !(r4 <= r2*1.02) {
		t.Fatalf("SA(4) mean %v worse than SA(2) %v", r4, r2)
	}
	// Diminishing returns: the second doubling buys less than the first.
	if (r2 - r4) > (r1 - r2) {
		t.Fatalf("no diminishing returns: r1=%v r2=%v r4=%v", r1, r2, r4)
	}
}

func TestMoreArmsShortenRotationalLatency(t *testing.T) {
	meanRot := func(n int) float64 {
		eng := simkit.New()
		var rotSum float64
		var count int
		d, err := New(eng, smallModel(), Config{
			Actuators: n,
			OnService: func(s, r, x float64) { rotSum += r; count++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Light load: with shallow queues the rotational gain comes from
		// the diagonal arm placement, not from SPTF request choice.
		tr := randomTrace(17, 600, 18, d.Capacity())
		replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
		return rotSum / float64(count)
	}
	r1 := meanRot(1)
	r2 := meanRot(2)
	r4 := meanRot(4)
	if r2 >= r1*0.85 {
		t.Fatalf("SA(2) mean rotational latency %v not well below SA(1) %v", r2, r1)
	}
	if r4 >= r2 {
		t.Fatalf("SA(4) mean rotational latency %v not below SA(2) %v", r4, r2)
	}
}

func TestAllArmsShareWork(t *testing.T) {
	eng, d := newSA(t, 4)
	tr := randomTrace(19, 800, 6, d.Capacity())
	replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	per := d.ServicedByArm()
	var total uint64
	for i, n := range per {
		if n == 0 {
			t.Fatalf("arm %d serviced nothing: %v", i, per)
		}
		total += n
	}
	if total+d.Snapshot().CacheHits != d.Snapshot().Completed {
		t.Fatalf("per-arm sum %d + cache hits %d != completed %d",
			total, d.Snapshot().CacheHits, d.Snapshot().Completed)
	}
}

func TestPowerBoundedByPeak(t *testing.T) {
	eng, d := newSA(t, 4)
	tr := randomTrace(23, 500, 5, d.Capacity())
	replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	b := d.Power(eng.Now())
	if b.Total() > d.PowerModel().PeakPower() {
		t.Fatalf("average power %v exceeds peak %v", b.Total(), d.PowerModel().PeakPower())
	}
	// Base design: one arm in motion at a time, so the seek-mode draw can
	// never exceed the 1-VCM level's share.
	if b.Watts[power.Seek] > d.PowerModel().ModePower(power.Seek, 1) {
		t.Fatalf("seek watts %v exceed single-VCM level", b.Watts[power.Seek])
	}
}

func TestFailArmDegradesGracefully(t *testing.T) {
	eng, d := newSA(t, 3)
	tr := randomTrace(29, 600, 8, d.Capacity())
	// Fail arm 1 a third of the way through the run.
	failAt := tr[len(tr)/3].ArrivalMs
	eng.At(failAt, func() {
		if err := d.FailArm(1); err != nil {
			t.Errorf("FailArm(1): %v", err)
		}
	})
	resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed after arm failure", i)
		}
	}
	if d.HealthyArms() != 2 {
		t.Fatalf("HealthyArms = %d, want 2", d.HealthyArms())
	}
}

func TestFailArmValidation(t *testing.T) {
	_, d := newSA(t, 2)
	if err := d.FailArm(-1); err == nil {
		t.Fatalf("FailArm(-1) accepted")
	}
	if err := d.FailArm(2); err == nil {
		t.Fatalf("FailArm(out of range) accepted")
	}
	if err := d.FailArm(0); err != nil {
		t.Fatalf("FailArm(0): %v", err)
	}
	if err := d.FailArm(0); err == nil {
		t.Fatalf("double FailArm accepted")
	}
	if err := d.FailArm(1); err == nil {
		t.Fatalf("failing the last healthy arm accepted")
	}
}

func TestDegradedDriveSlowerThanHealthy(t *testing.T) {
	run := func(fail bool) float64 {
		eng, d := newSA(t, 4)
		if fail {
			for i := 1; i < 4; i++ {
				if err := d.FailArm(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		tr := randomTrace(37, 600, 9, d.Capacity())
		return mean(replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr))
	}
	healthy := run(false)
	degraded := run(true)
	if degraded <= healthy {
		t.Fatalf("degraded drive mean %v not above healthy %v", degraded, healthy)
	}
}

func TestMultiArmMotionCompletesAllWork(t *testing.T) {
	eng := simkit.New()
	d, err := New(eng, smallModel(), Config{Actuators: 2, MultiArmMotion: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(41, 600, 8, d.Capacity())
	resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed under multi-arm motion", i)
		}
	}
	if d.Snapshot().Completed != uint64(len(tr)) {
		t.Fatalf("completed %d of %d", d.Snapshot().Completed, len(tr))
	}
}

func TestMultiArmMotionNotWorseThanBase(t *testing.T) {
	run := func(multi bool) float64 {
		eng := simkit.New()
		d, err := New(eng, smallModel(), Config{Actuators: 2, MultiArmMotion: multi})
		if err != nil {
			t.Fatal(err)
		}
		tr := randomTrace(43, 800, 9, d.Capacity())
		return mean(replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr))
	}
	base := run(false)
	multi := run(true)
	// The paper reports the relaxation provides little benefit; our model
	// should at least not regress materially.
	if multi > base*1.10 {
		t.Fatalf("multi-arm motion mean %v much worse than base %v", multi, base)
	}
}

func TestMultiChannelServesConcurrently(t *testing.T) {
	run := func(channels int) float64 {
		eng := simkit.New()
		d, err := New(eng, smallModel(), Config{Actuators: 4, Channels: channels})
		if err != nil {
			t.Fatal(err)
		}
		tr := randomTrace(47, 900, 4, d.Capacity()) // heavy load
		return mean(replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr))
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Fatalf("4-channel mean %v not below 1-channel %v under heavy load", four, one)
	}
}

// TestInitialPlacementUsed checks the default arm placement through
// service: with every other arm deconfigured, a request on the
// remaining arm's starting cylinder (0) is served by that arm without a
// seek.
func TestInitialPlacementUsed(t *testing.T) {
	m := smallModel()
	firstSeek := func(cfg Config, keep, cyl int) (seekMs float64, byArm []uint64) {
		t.Helper()
		seekMs = -1
		cfg.OnService = func(s, _, _ float64) { seekMs = s }
		eng := simkit.New()
		d, err := New(eng, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Actuators; i++ {
			if i != keep {
				if err := d.FailArm(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.At(0, func() {
			d.Submit(trace.Request{LBA: lbaOnCyl(d.Geometry(), cyl), Sectors: 1, Read: true}, nil)
		})
		eng.Run()
		return seekMs, d.ServicedByArm()
	}
	def := Config{Actuators: 4}
	for arm := 0; arm < def.Actuators; arm++ {
		if seek, by := firstSeek(def, arm, 0); seek != 0 || by[arm] != 1 {
			t.Fatalf("default arm %d: seek %v ms to cylinder 0, services %v", arm, seek, by)
		}
		if seek, _ := firstSeek(def, arm, 1000); seek <= 0 {
			t.Fatalf("default arm %d: seek %v ms to cylinder 1000", arm, seek)
		}
	}
}

// lbaOnCyl returns the first LBA of cylinder cyl's first track.
func lbaOnCyl(g *geom.Geometry, cyl int) int64 {
	for i, z := range g.Zones() {
		if cyl >= z.FirstCyl && cyl < z.FirstCyl+z.CylCount {
			return g.LBAOf(geom.Loc{Zone: i, Cyl: cyl})
		}
	}
	panic("cylinder out of range")
}

func TestSubmitBeyondCapacityPanics(t *testing.T) {
	eng, d := newSA(t, 2)
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

func TestCacheHitPathMatchesConventional(t *testing.T) {
	eng, d := newSA(t, 4)
	var first, second float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 5000, Sectors: 8, Read: true}, func(at float64) {
			first = at
			d.Submit(trace.Request{LBA: 5000, Sectors: 8, Read: true}, func(at2 float64) {
				second = at2 - first
			})
		})
	})
	eng.Run()
	if d.Snapshot().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", d.Snapshot().CacheHits)
	}
	if math.Abs(second-smallModel().CacheHitMs) > 1e-9 {
		t.Fatalf("cache hit latency %v", second)
	}
}

func TestReducedRPMParallelDrive(t *testing.T) {
	// §7.2: a lower-RPM SA(4) still services everything; its idle power
	// drops below the 7200 RPM conventional drive's.
	eng := simkit.New()
	m := smallModel().WithRPM(4200)
	d, err := NewSA(eng, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(53, 300, 12, d.Capacity())
	resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed at 4200 RPM", i)
		}
	}
	ref, err := power.NewModel(power.Default(), smallModel().PowerSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.PowerModel().IdlePower() >= ref.IdlePower() {
		t.Fatalf("SA(4)@4200 idle %v not below conventional@7200 idle %v",
			d.PowerModel().IdlePower(), ref.IdlePower())
	}
}

// TestMediaServiceAllocatesNothing pins the allocation-free service
// path on HC-SD-SA(4): once warm, a media-miss request's submit, the
// single (request, arm) SPTF scan, and the per-arm completion event
// allocate nothing.
func TestMediaServiceAllocatesNothing(t *testing.T) {
	eng, d := newSA(t, 4)
	rng := rand.New(rand.NewSource(3))
	var lba int64
	submit := func() { d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil) }
	cycle := func() {
		// Two requests per cycle, so the second queues behind the first
		// and dispatch scans a non-empty queue.
		lba = rng.Int63n(d.Capacity() - 64)
		eng.After(3, submit)
		eng.After(3, submit)
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("media service allocated %v times per cycle, want 0", n)
	}
}

// BenchmarkSA4Throughput times a burst of 8 random writes arriving at
// once on HC-SD-SA(4), so every dispatch scans the (request, arm) pairs
// of a queued backlog; one op is one burst. The harness allocates
// nothing per op, so allocs/op counts the drive's own per-request
// allocations: zero, where a per-request completion closure would show
// as 8.
func BenchmarkSA4Throughput(b *testing.B) {
	eng := simkit.New()
	d, err := NewSA(eng, smallModel(), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
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
		eng.After(3, burst)
		eng.Run()
	}
}

// TestStatsSnapshot pins the parallel drive's stats views to a
// replay: the taxonomy, the snapshot's typed fields and per-arm
// counters, and ServicedByArm, whose services plus cache hits account
// for every completion.
func TestStatsSnapshot(t *testing.T) {
	eng, d := newSA(t, 2)
	tr := randomTrace(101, 100, 10, d.Capacity())
	replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	s := d.Snapshot()
	if d.Taxonomy().String() != "D1A2S1H1" {
		t.Fatalf("taxonomy %s", d.Taxonomy())
	}
	if s.Completed != 100 {
		t.Fatalf("Completed %d", s.Completed)
	}
	by := d.ServicedByArm()
	if s.Counters["healthy_arms"] != 2 || len(by) != 2 {
		t.Fatalf("arm stats wrong: %v, serviced %v", s.Counters, by)
	}
	var mech uint64
	for i, n := range by {
		if s.Counters[fmt.Sprintf("arm%d_serviced", i)] != n {
			t.Fatalf("arm%d_serviced %d, ServicedByArm %v", i, s.Counters[fmt.Sprintf("arm%d_serviced", i)], by)
		}
		mech += n
	}
	if mech+s.CacheHits != s.Completed {
		t.Fatalf("stats inconsistent: %d serviced + %d hits != %d completed", mech, s.CacheHits, s.Completed)
	}
}
