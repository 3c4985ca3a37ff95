package disk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/trace"
)

// Write-back cache extension tests.

func TestWriteBackAcknowledgesFast(t *testing.T) {
	m := smallModel()
	eng, d := newDrive(t, m, Options{WriteCache: true})
	var ack float64
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 5000, Sectors: 8, Read: false},
			func(at float64) { ack = at })
	})
	eng.Run()
	if math.Abs(ack-m.CacheHitMs) > 1e-9 {
		t.Fatalf("write-back ack at %v, want cache latency %v", ack, m.CacheHitMs)
	}
	if d.Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1 (destage must still hit media)", d.Flushes())
	}
	if d.BackgroundPending() != 0 {
		t.Fatalf("BackgroundPending = %d after drain", d.BackgroundPending())
	}
}

func TestWriteBackDataReadableImmediately(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{WriteCache: true})
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
		t.Fatalf("read after cached write missed (hits=%d)", hits)
	}
}

func TestDestageYieldsToReads(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{WriteCache: true})
	var readDone float64
	flushesBeforeRead := uint64(0)
	eng.At(0, func() {
		// Queue a pile of dirty writes, then a read: the read must be
		// serviced before most destages.
		for i := 0; i < 20; i++ {
			d.Submit(trace.Request{LBA: int64(i) * 50000, Sectors: 8, Read: false}, nil)
		}
		d.Submit(trace.Request{LBA: 3999000, Sectors: 8, Read: true}, func(at float64) {
			readDone = at
			flushesBeforeRead = d.Flushes()
		})
	})
	eng.Run()
	if readDone <= 0 {
		t.Fatalf("read never completed")
	}
	if flushesBeforeRead > 2 {
		t.Fatalf("%d destages ran before the foreground read", flushesBeforeRead)
	}
	if d.Flushes() != 20 {
		t.Fatalf("Flushes = %d, want 20 after drain", d.Flushes())
	}
}

func TestWriteBackImprovesWriteLatencyUnderLoad(t *testing.T) {
	run := func(writeCache bool) float64 {
		eng, d := newDrive(t, smallModel(), Options{WriteCache: writeCache})
		rng := rand.New(rand.NewSource(77))
		var sum float64
		const n = 300
		for i := 0; i < n; i++ {
			at := float64(i) * 12
			lba := rng.Int63n(d.Capacity() - 64)
			eng.At(at, func() {
				d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
					func(done float64) { sum += done - at })
			})
		}
		eng.Run()
		return sum / n
	}
	through := run(false)
	back := run(true)
	if back >= through/5 {
		t.Fatalf("write-back mean %v not far below write-through %v", back, through)
	}
}

func TestWriteBackEnergyStillAccrues(t *testing.T) {
	// Destages hit the media, so seek energy must not disappear.
	eng, d := newDrive(t, smallModel(), Options{WriteCache: true})
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 100; i++ {
		at := float64(i) * 20
		lba := rng.Int63n(d.Capacity() - 64)
		eng.At(at, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
		})
	}
	eng.Run()
	if d.acct.ModeMs(power.Seek) == 0 {
		t.Fatalf("no seek time accounted despite destages")
	}
}
