package drpm

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/simkit"
	"repro/internal/trace"
)

func smallModel() disk.Model {
	m := disk.BarracudaES()
	m.Name = "drpm-test"
	m.Geom.Cylinders = 2000
	m.Geom.Zones = 4
	m.Geom.OuterSPT = 300
	m.Geom.InnerSPT = 200
	m.SingleCylMs = 0.5
	m.AvgSeekMs = 2.0
	m.FullStrokeMs = 4.0
	return m
}

func newDrive(t testing.TB, cfg Config) (*simkit.Engine, *Drive) {
	t.Helper()
	eng := simkit.New()
	d, err := New(eng, smallModel(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, d
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	eng := simkit.New()
	d, err := New(eng, smallModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelRPM() != 7200 {
		t.Fatalf("initial level %v, want model RPM", d.LevelRPM())
	}
	bad := []Config{
		{Levels: []float64{7200, 7200}},
		{Levels: []float64{7200, 0}},
		{Levels: []float64{5200, 7200}},
		{Levels: []float64{7200, 4200}, IdleThresholdMs: -1},
		{Levels: []float64{7200, 4200}, UpQueueLen: -1},
	}
	for _, c := range bad {
		if _, err := New(eng, smallModel(), c); err == nil {
			t.Fatalf("accepted invalid config %+v", c)
		}
	}
}

func TestStepsDownWhenIdle(t *testing.T) {
	eng, d := newDrive(t, Config{Levels: []float64{7200, 5200, 4200}, IdleThresholdMs: 100})
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

func TestServicesAtLowRPMSlower(t *testing.T) {
	// Mean service over many well-separated requests: at 4200 RPM the
	// average rotational latency and transfer time both grow.
	meanService := func(startIdleMs float64) float64 {
		eng, d := newDrive(t, Config{
			Levels: []float64{7200, 4200}, IdleThresholdMs: 1e9, UpQueueLen: 99,
		})
		if startIdleMs > 0 {
			// Force the drive to the low level directly.
			eng.At(1, func() { d.stepTo(1) })
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

func TestSpinsUpUnderLoad(t *testing.T) {
	eng, d := newDrive(t, Config{
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

func TestIdlePowerDropsAtLowLevels(t *testing.T) {
	run := func(levels []float64) float64 {
		eng, d := newDrive(t, Config{Levels: levels, IdleThresholdMs: 50})
		eng.RunUntil(60000) // a minute of idleness
		return d.Power(eng.Now()).Total()
	}
	pinned := run([]float64{7200})         // cannot step down
	laddered := run([]float64{7200, 4200}) // sinks to 4200
	if laddered >= pinned {
		t.Fatalf("DRPM idle power %v not below pinned-RPM %v", laddered, pinned)
	}
}

func TestAllRequestsCompleteUnderChurn(t *testing.T) {
	eng, d := newDrive(t, Config{
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

func TestCacheHitsBypassSpindle(t *testing.T) {
	eng, d := newDrive(t, Config{Levels: []float64{7200, 4200}, IdleThresholdMs: 50})
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

func TestSubmitBeyondCapacityPanics(t *testing.T) {
	eng, d := newDrive(t, Config{})
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

// TestMediaServiceAllocatesNothing pins the allocation-free service
// path: once warm, a media-miss request's submit, SPTF scan, completion
// and the idle step-down timer it re-arms allocate nothing.
func TestMediaServiceAllocatesNothing(t *testing.T) {
	eng, d := newDrive(t, Config{})
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
