package disk

import (
	"math/rand"
	"testing"

	"repro/internal/defect"
	"repro/internal/simkit"
	"repro/internal/trace"
)

func defectDrive(t *testing.T) (*simkit.Engine, *Drive, *defect.Table) {
	t.Helper()
	m := smallModel()
	eng := simkit.New()
	probe, err := New(eng, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := defect.NewTable(probe.Capacity(), probe.Capacity()/100)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := simkit.New()
	d, err := New(eng2, m, Options{Defects: tab})
	if err != nil {
		t.Fatal(err)
	}
	return eng2, d, tab
}

func TestDefectTableShrinksCapacity(t *testing.T) {
	_, d, tab := defectDrive(t)
	if d.Capacity() != tab.UserSectors() {
		t.Fatalf("Capacity %d, want user space %d", d.Capacity(), tab.UserSectors())
	}
}

func TestHealthyRequestsUnaffectedByDefectTable(t *testing.T) {
	eng, d, _ := defectDrive(t)
	done := 0
	eng.At(0, func() {
		for i := 0; i < 20; i++ {
			lba := int64(i) * 10000
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
				func(float64) { done++ })
		}
	})
	eng.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	if d.DefectHops() != 0 {
		t.Fatalf("healthy requests recorded %d defect hops", d.DefectHops())
	}
}

func TestRemappedSectorCostsExtraPositioning(t *testing.T) {
	serviceTime := func(grow bool) float64 {
		eng, d, tab := defectDrive(t)
		if grow {
			if err := tab.Grow(50004); err != nil {
				t.Fatal(err)
			}
		}
		var at float64
		eng.At(0, func() {
			d.Submit(trace.Request{LBA: 50000, Sectors: 8, Read: false},
				func(done float64) { at = done })
		})
		eng.Run()
		return at
	}
	healthy := serviceTime(false)
	remapped := serviceTime(true)
	if remapped <= healthy {
		t.Fatalf("remapped request (%v ms) not slower than healthy (%v ms)", remapped, healthy)
	}
}

func TestDefectHopsCounted(t *testing.T) {
	eng, d, tab := defectDrive(t)
	if err := tab.Grow(1004); err != nil {
		t.Fatal(err)
	}
	done := false
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 1000, Sectors: 8, Read: true},
			func(float64) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatalf("fragmented request never completed")
	}
	if d.DefectHops() != 1 {
		t.Fatalf("DefectHops = %d, want 1", d.DefectHops())
	}
}

// TestFragmentedRequestsCompleteOnce replays requests across many
// remapped sectors: a fragmented request is serviced extent by extent
// but completes once, so Completed equals Submitted and each done
// callback runs once.
func TestFragmentedRequestsCompleteOnce(t *testing.T) {
	eng, d, tab := defectDrive(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		tab.Grow(rng.Int63n(tab.UserSectors())) // a rare duplicate is refused
	}
	const n = 300
	dones := 0
	for i := 0; i < n; i++ {
		lba := rng.Int63n(d.Capacity() - 256)
		eng.At(float64(i)*2, func() {
			d.Submit(trace.Request{LBA: lba, Sectors: 256, Read: i%2 == 0},
				func(float64) { dones++ })
		})
	}
	eng.Run()
	s := d.Snapshot()
	if d.DefectHops() == 0 {
		t.Fatal("no request crossed a remapped sector")
	}
	if s.Submitted != n || s.Completed != n || dones != n {
		t.Fatalf("submitted %d, completed %d, done callbacks %d, want %d each (defect hops %d)",
			s.Submitted, s.Completed, dones, n, d.DefectHops())
	}
}

func TestRequestBeyondUserSpacePanics(t *testing.T) {
	eng, d, tab := defectDrive(t)
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("request into the spare pool did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: tab.UserSectors() - 4, Sectors: 8, Read: true}, nil)
	})
	eng.Run()
}

// TestRequestInsideSparePoolPanics pins the Submit bound to the
// addressable capacity, not the raw geometry: a request that lies
// entirely within the spare pool [UserSectors, TotalSectors) is
// physically on the platters, so a TotalSectors bound would accept it
// silently — aliasing sectors the defect table owns.
func TestRequestInsideSparePoolPanics(t *testing.T) {
	eng, d, tab := defectDrive(t)
	if tab.UserSectors()+8 > d.Geometry().TotalSectors() {
		t.Fatalf("spare pool too small for the test request")
	}
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("request entirely inside the spare pool did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: tab.UserSectors(), Sectors: 8, Read: true}, nil)
	})
	eng.Run()
}

// TestSplitAllocatesNothing pins the allocation-free defect split: with
// grown defects on the drive, splitting into a reused buffer allocates
// nothing, and neither does a healthy media-miss request's service on a
// drive with a defect table (the drive reuses one extent buffer).
func TestSplitAllocatesNothing(t *testing.T) {
	eng, d, tab := defectDrive(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		tab.Grow(rng.Int63n(tab.UserSectors())) // a rare duplicate is refused
	}
	var buf []defect.Extent
	var lba int64
	split := func() {
		var err error
		if buf, err = tab.Split(buf[:0], lba, 4096); err != nil {
			t.Fatal(err)
		}
	}
	fragments := 0
	for i := 0; i < 1000; i++ {
		lba = rng.Int63n(tab.UserSectors() - 4096)
		split()
		if len(buf) > 1 {
			fragments++
		}
	}
	if fragments == 0 {
		t.Fatal("no split crossed a defect")
	}
	lba = 0
	if n := testing.AllocsPerRun(500, func() { lba = rng.Int63n(tab.UserSectors() - 4096); split() }); n != 0 {
		t.Fatalf("Split allocated %v times per call, want 0", n)
	}

	submit := func() { d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil) }
	cycle := func() {
		for {
			lba = rng.Int63n(d.Capacity() - 64)
			if ext, _ := tab.Split(buf[:0], lba, 8); len(ext) == 1 {
				break // healthy: fragmented requests build per-fragment callbacks
			}
		}
		eng.After(5, submit)
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("media service with a defect table allocated %v times per request, want 0", n)
	}
}
