package disk

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// drpmModel is a small drive with a short seek curve, so DRPM tests run
// quickly and rotation dominates positioning.
func drpmModel() Model {
	m := smallModel()
	m.Name = "drpm-test"
	m.SingleCylMs = 0.5
	m.AvgSeekMs = 2.0
	m.FullStrokeMs = 4.0
	return m
}

func newDRPM(t testing.TB, cfg DRPMConfig) (*simkit.Engine, *Drive) {
	t.Helper()
	eng := simkit.New()
	d, err := NewDRPM(eng, drpmModel(), cfg)
	if err != nil {
		t.Fatalf("NewDRPM: %v", err)
	}
	return eng, d
}

// drpmBadConfigs are configs NewDRPM must reject, with a fragment of
// the error each must produce. They also seed FuzzDRPMConfig.
var drpmBadConfigs = []struct {
	cfg  DRPMConfig
	want string
}{
	{DRPMConfig{Levels: []float64{7200, 7200}}, "Levels[1]"},
	{DRPMConfig{Levels: []float64{7200, 0}}, "Levels[1]"},
	{DRPMConfig{Levels: []float64{5200, 7200}}, "Levels[1]"},
	{DRPMConfig{Levels: []float64{7200, math.NaN()}}, "Levels[1] NaN"},
	{DRPMConfig{Levels: []float64{math.Inf(1), 4200}}, "Levels[0] +Inf"},
	{DRPMConfig{Levels: []float64{7200, 0.5}}, "Levels[1]"},
	{DRPMConfig{Levels: []float64{1e305, 1e304}}, "Levels[0]"},
	{DRPMConfig{Levels: []float64{7200, 4200}, IdleThresholdMs: -1}, "IdleThresholdMs"},
	{DRPMConfig{Levels: []float64{7200, 4200}, IdleThresholdMs: math.NaN()}, "IdleThresholdMs NaN"},
	{DRPMConfig{Levels: []float64{7200, 4200}, IdleThresholdMs: math.Inf(1)}, "IdleThresholdMs +Inf"},
	{DRPMConfig{Levels: []float64{7200, 4200}, TransitionMsPerLevel: math.NaN()}, "TransitionMsPerLevel NaN"},
	{DRPMConfig{Levels: []float64{7200, 4200}, TransitionMsPerLevel: math.Inf(1)}, "TransitionMsPerLevel +Inf"},
	{DRPMConfig{Levels: []float64{7200, 4200}, TransitionMsPerLevel: 1e300}, "TransitionMsPerLevel"},
	{DRPMConfig{Levels: []float64{7200, 4200}, UpQueueLen: -1}, "UpQueueLen"},
}

func TestDRPMConfigDefaultsAndValidation(t *testing.T) {
	eng := simkit.New()
	d, err := NewDRPM(eng, drpmModel(), DRPMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelRPM() != 7200 {
		t.Fatalf("initial level %v, want model RPM", d.LevelRPM())
	}
	for _, c := range drpmBadConfigs {
		_, err := NewDRPM(eng, drpmModel(), c.cfg)
		if err == nil {
			t.Fatalf("accepted invalid config %+v", c.cfg)
		}
		if !strings.Contains(err.Error(), "DRPM."+c.want) {
			t.Errorf("config %+v: error %q does not name DRPM.%s", c.cfg, err, c.want)
		}
	}
}

func TestDRPMStepsDownWhenIdle(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{Levels: []float64{7200, 5200, 4200}, IdleThresholdMs: 100})
	// No work at all: after enough idle time the drive walks down the
	// ladder one level per threshold.
	eng.RunUntil(1000)
	if d.Level() != 2 {
		t.Fatalf("level %d after long idle, want bottom (2)", d.Level())
	}
	if d.Transitions() < 2 {
		t.Fatalf("transitions %d, want >= 2", d.Transitions())
	}
	res := d.LevelResidency()
	if res[0] < 90 || res[0] > 600 {
		t.Fatalf("full-speed residency %v implausible", res[0])
	}
}

func TestDRPMServicesAtLowRPMSlower(t *testing.T) {
	// Mean service over many well-separated requests: at 4200 RPM the
	// average rotational latency and transfer time both grow.
	meanService := func(startIdleMs float64) float64 {
		eng, d := newDRPM(t, DRPMConfig{
			Levels: []float64{7200, 4200}, IdleThresholdMs: 1e9, UpQueueLen: 99,
		})
		if startIdleMs > 0 {
			// Force the drive to the low level directly.
			eng.At(1, func() { d.spin.stepTo(1) })
		}
		rng := rand.New(rand.NewSource(3))
		var sum float64
		const n = 200
		for i := 0; i < n; i++ {
			at := 2000 + float64(i)*40
			lba := rng.Int63n(d.Capacity() - 64)
			eng.At(at, func() {
				start := eng.Now()
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
					func(done float64) { sum += done - start })
			})
		}
		eng.Run()
		return sum / n
	}
	fast := meanService(0)
	slow := meanService(1)
	// Average rotational latency grows by (14.3-8.3)/2 ≈ 3 ms.
	if slow <= fast+1 {
		t.Fatalf("low-RPM mean service %v not clearly slower than full-speed %v", slow, fast)
	}
}

func TestDRPMSpinsUpUnderLoad(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{
		Levels: []float64{7200, 5200, 4200}, IdleThresholdMs: 50, UpQueueLen: 2,
		TransitionMsPerLevel: 100,
	})
	// Let it sink to the bottom, then apply a burst.
	done := 0
	levelAtBurstEnd := -1
	eng.At(2000, func() {
		if d.Level() == 0 {
			t.Errorf("drive did not step down before the burst")
		}
		for i := 0; i < 20; i++ {
			lba := int64(i) * 100000
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
				func(float64) {
					done++
					if done == 20 {
						levelAtBurstEnd = d.Level()
					}
				})
		}
	})
	eng.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	// The queue pressure must have spun the drive back to full speed by
	// the time the burst drains (afterwards it is free to step down
	// again — that is the policy working, not a failure).
	if levelAtBurstEnd != 0 {
		t.Fatalf("drive at level %d when the burst drained, want full speed", levelAtBurstEnd)
	}
}

func TestDRPMIdlePowerDropsAtLowLevels(t *testing.T) {
	run := func(levels []float64) float64 {
		eng, d := newDRPM(t, DRPMConfig{Levels: levels, IdleThresholdMs: 50})
		eng.RunUntil(60000) // a minute of idleness
		return d.Power(eng.Now()).Total()
	}
	pinned := run([]float64{7200})         // cannot step down
	laddered := run([]float64{7200, 4200}) // sinks to 4200
	if laddered >= pinned {
		t.Fatalf("DRPM idle power %v not below pinned-RPM %v", laddered, pinned)
	}
}

func TestDRPMAllRequestsCompleteUnderChurn(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{
		Levels: []float64{7200, 5200, 4200}, IdleThresholdMs: 30,
		TransitionMsPerLevel: 50,
	})
	rng := rand.New(rand.NewSource(7))
	const n = 400
	done := 0
	at := 0.0
	for i := 0; i < n; i++ {
		// Alternate bursts and idle gaps to force transitions mid-run.
		if i%40 == 0 {
			at += 500
		} else {
			at += rng.ExpFloat64() * 3
		}
		lba := rng.Int63n(d.Capacity() - 64)
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: rng.Intn(2) == 0},
				func(float64) { done++ })
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d across transitions", done, n)
	}
	if d.Transitions() == 0 {
		t.Fatalf("no transitions exercised")
	}
}

func TestDRPMCacheHitsBypassSpindle(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{Levels: []float64{7200, 4200}, IdleThresholdMs: 50})
	var hitLatency float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 1000, Sectors: 8, Read: true}, func(float64) {
			// Long idle: the drive steps down. The re-read must still be
			// served at cache latency, spindle speed irrelevant.
			eng.At(3000, func() {
				start := eng.Now()
				d.Submit(trace.Request{LBA: 1000, Sectors: 8, Read: true},
					func(at float64) { hitLatency = at - start })
			})
		})
	})
	eng.Run()
	if hitLatency <= 0 || hitLatency > 1 {
		t.Fatalf("cache hit latency %v at low RPM", hitLatency)
	}
	if d.Snapshot().CacheHits != 1 {
		t.Fatalf("CacheHits = %d", d.Snapshot().CacheHits)
	}
}

func TestDRPMSubmitBeyondCapacityPanics(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{})
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("out-of-range request did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: d.Capacity(), Sectors: 1}, nil)
	})
	eng.Run()
}

// TestDRPMMediaServiceAllocatesNothing pins the allocation-free service
// path: once warm, a media-miss request's submit, SPTF scan, completion
// and the idle step-down timer it re-arms allocate nothing.
func TestDRPMMediaServiceAllocatesNothing(t *testing.T) {
	eng, d := newDRPM(t, DRPMConfig{})
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

// TestDRPMPowerWindow pins Power(t) to the energy accrued by t: level
// changes and transitions after t must not leak into a window that ends
// before them. A drive that finishes its work and then walks down its
// ladder reports, as of its last completion, what a drive that never
// steps down reports, to rounding: the walk came later.
func TestDRPMPowerWindow(t *testing.T) {
	run := func(levels []float64) (*simkit.Engine, *Drive, float64) {
		eng, d := newDRPM(t, DRPMConfig{Levels: levels, IdleThresholdMs: 500})
		var last float64
		for i := 0; i < 40; i++ {
			lba := int64(i) * 37013
			eng.At(float64(i)*20, func() {
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: i%2 == 0},
					func(at float64) { last = at })
			})
		}
		eng.Run()
		return eng, d, last
	}
	engL, ladder, lastL := run([]float64{7200, 6200, 5200, 4200})
	_, pinned, lastP := run([]float64{7200})
	if ladder.Transitions() != 3 || engL.Now() <= lastL+1000 {
		t.Fatalf("ladder drive made %d transitions ending at %v after its last completion at %v; want the post-run walk",
			ladder.Transitions(), engL.Now(), lastL)
	}
	if lastL != lastP {
		t.Fatalf("last completions differ: %v vs %v", lastL, lastP)
	}
	// Unwinding the walk's charge is a subtraction, exact to rounding.
	got, want := ladder.Power(lastL), pinned.Power(lastP)
	for _, m := range power.Modes {
		if math.Abs(got.Watts[m]-want.Watts[m]) > 1e-12 {
			t.Errorf("%v at the last completion: %v W, pinned drive %v W", m, got.Watts[m], want.Watts[m])
		}
	}
	// Midway through the first transition only its first half has
	// accrued, at Levels[0]'s VCM power.
	tr := ladder.spin.log[0]
	mid := (tr.start + tr.end) / 2
	before, during := ladder.Power(tr.start), ladder.Power(mid)
	vcm := ladder.spin.pms[0].VCMPower()
	wantSeek := (before.Watts[power.Seek]*tr.start + (mid-tr.start)*vcm) / mid
	if math.Abs(during.Watts[power.Seek]-wantSeek) > 1e-9 {
		t.Fatalf("seek watts mid-transition %v, want %v", during.Watts[power.Seek], wantSeek)
	}
	if res := ladder.spin.residency(mid); res[0] != mid || res[1] != 0 {
		t.Fatalf("residency mid-transition %v, want all at level 0", res)
	}
}

// drpmTrace is a random open-loop trace that exercises the spindle:
// idle gaps long enough for the ladder to step down, bursts deep enough
// to spin it back up, and re-reads of recent ranges that hit the cache.
func drpmTrace(seed int64, n int, capacity int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]trace.Request, 0, n)
	now := 0.0
	for len(tr) < n {
		now += []float64{30, 300, 1200, 2500}[rng.Intn(4)]
		for b := 1 + rng.Intn(12); b > 0 && len(tr) < n; b-- {
			now += rng.ExpFloat64() * 1.5
			r := trace.Request{
				ArrivalMs: now,
				LBA:       rng.Int63n(capacity - 300),
				Sectors:   1 + rng.Intn(64),
				Read:      rng.Intn(100) < 60,
			}
			if k := len(tr); k > 8 && rng.Intn(5) == 0 {
				prev := tr[k-1-rng.Intn(8)]
				r.LBA, r.Sectors, r.Read = prev.LBA, prev.Sectors, true
			}
			tr = append(tr, r)
		}
	}
	return tr
}

// playDRPM replays tr on d and returns every completion time.
func playDRPM(eng *simkit.Engine, d device.Device, tr []trace.Request) []float64 {
	done := make([]float64, len(tr))
	for i, r := range tr {
		eng.At(r.ArrivalMs, func() {
			d.Submit(r, func(at float64) { done[i] = at })
		})
	}
	eng.Run()
	return done
}

// compareDRPM reports the first difference between the engine and the
// reference after the same replay, comparing every float by its bits.
func compareDRPM(d *Drive, ref *refDRPM, got, want []float64) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		if !same(got[i], want[i]) {
			return fmt.Errorf("request %d completes at %v, reference %v", i, got[i], want[i])
		}
	}
	if d.Transitions() != ref.Transitions() {
		return fmt.Errorf("%d transitions, reference %d", d.Transitions(), ref.Transitions())
	}
	gr, wr := d.LevelResidency(), ref.LevelResidency()
	for i := range wr {
		if !same(gr[i], wr[i]) {
			return fmt.Errorf("level %d residency %v, reference %v", i, gr[i], wr[i])
		}
	}
	now := d.eng.Now()
	gp, wp := d.Power(now), ref.Power(now)
	for _, m := range power.Modes {
		if !same(gp.Watts[m], wp.Watts[m]) {
			return fmt.Errorf("%v: %v W, reference %v W", m, gp.Watts[m], wp.Watts[m])
		}
	}
	if !same(gp.Elapsed, wp.Elapsed) {
		return fmt.Errorf("power elapsed %v, reference %v", gp.Elapsed, wp.Elapsed)
	}
	gs, ws := d.Snapshot(), ref.Snapshot()
	if gs.Kind != ws.Kind || gs.Submitted != ws.Submitted || gs.Completed != ws.Completed ||
		gs.CacheHits != ws.CacheHits || gs.Queue.Len != ws.Queue.Len {
		return fmt.Errorf("snapshot %+v, reference %+v", gs, ws)
	}
	for k, v := range ws.Counters {
		if gs.Counters[k] != v {
			return fmt.Errorf("counter %s = %d, reference %d", k, gs.Counters[k], v)
		}
	}
	for k, v := range ws.Gauges {
		g, ok := gs.Gauges[k]
		if !ok || !same(g.Value, v.Value) || !same(g.Max, v.Max) {
			return fmt.Errorf("gauge %s = %+v, reference %+v", k, g, v)
		}
	}
	return nil
}

// TestDRPMMatchesReference replays random traces on NewDRPM and on
// refDRPM, the pre-fold dynamic-RPM drive, across ladders, idle
// thresholds, spin-up triggers and transition times, and requires the
// same bits everywhere. Each run must step down before its last
// completion and spin up under load, or it proves nothing about the
// spindle.
func TestDRPMMatchesReference(t *testing.T) {
	ladders := [][]float64{
		{7200, 5400},
		{6800, 5600, 4400}, // Levels[0] below the model's 7200 RPM
		{7200, 6200, 5200, 4200},
	}
	runs := 0
	for li, levels := range ladders {
		for _, idle := range []float64{20, 500} {
			for _, upq := range []int{1, 2, 4} {
				for _, trans := range []float64{0, 50, 400} {
					name := fmt.Sprintf("levels=%d/idle=%v/up=%d/trans=%v", len(levels), idle, upq, trans)
					cfg := DRPMConfig{Levels: levels, IdleThresholdMs: idle, UpQueueLen: upq, TransitionMsPerLevel: trans}
					engR, engD := simkit.New(), simkit.New()
					d, err := NewDRPM(engD, drpmModel(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.fill(drpmModel().RPM)
					ref, err := newRefDRPM(engR, drpmModel(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					// A zero transition time means the default to the
					// config; set it on both drives directly.
					d.spin.cfg.TransitionMsPerLevel = trans
					ref.cfg.TransitionMsPerLevel = trans

					tr := drpmTrace(int64(100*li+runs), 400, d.Capacity())
					got := playDRPM(engD, d, tr)
					want := playDRPM(engR, ref, tr)
					if err := compareDRPM(d, ref, got, want); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					last := 0.0
					for _, at := range got {
						last = max(last, at)
					}
					var downs, ups int
					for _, c := range d.spin.log {
						switch {
						case c.to == 0:
							ups++
						case c.start < last:
							downs++
						}
					}
					if downs == 0 || ups == 0 {
						t.Fatalf("%s: vacuous run: %d step-downs before the last completion, %d spin-ups", name, downs, ups)
					}
					runs++
				}
			}
		}
	}
	if runs != 54 {
		t.Fatalf("ran %d configurations, want 54", runs)
	}
}

// FuzzDRPMConfig replays a short random trace on any config NewDRPM
// accepts: every request must complete, the level must stay on the
// ladder, and the clock must stay finite.
func FuzzDRPMConfig(f *testing.F) {
	for _, c := range drpmBadConfigs {
		l := append(c.cfg.Levels, 0, 0, 0, 0)
		f.Add(uint8(len(c.cfg.Levels)), l[0], l[1], l[2], l[3], c.cfg.IdleThresholdMs,
			c.cfg.UpQueueLen, c.cfg.TransitionMsPerLevel, int64(1))
	}
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, int64(2))
	f.Add(uint8(4), 7200.0, 6200.0, 5200.0, 4200.0, 20.0, 1, 50.0, int64(3))
	f.Fuzz(func(t *testing.T, n uint8, l0, l1, l2, l3, idle float64, upq int, trans float64, seed int64) {
		cfg := DRPMConfig{
			Levels:          []float64{l0, l1, l2, l3}[:n%5],
			IdleThresholdMs: idle, UpQueueLen: upq, TransitionMsPerLevel: trans,
		}
		eng := simkit.New()
		d, err := NewDRPM(eng, drpmModel(), cfg)
		if err != nil {
			return
		}
		levels := len(d.spin.cfg.Levels)
		tr := drpmTrace(seed, 24, d.Capacity())
		completed := 0
		for _, r := range tr {
			eng.At(r.ArrivalMs, func() {
				d.Submit(r, func(float64) {
					completed++
					if l := d.Level(); l < 0 || l >= levels {
						t.Fatalf("level %d off a %d-level ladder", l, levels)
					}
				})
			})
		}
		eng.Run()
		if completed != len(tr) {
			t.Fatalf("%d of %d requests completed", completed, len(tr))
		}
		if now := eng.Now(); math.IsNaN(now) || math.IsInf(now, 0) {
			t.Fatalf("clock %v after the replay", now)
		}
	})
}
