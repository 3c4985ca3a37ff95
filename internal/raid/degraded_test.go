package raid

import (
	"testing"

	"repro/internal/trace"
)

// Degraded-mode tests: member failure, reconstruction reads, and repair.

func TestFailMemberValidation(t *testing.T) {
	j, _ := NewJBOD([]int64{100, 100})
	r0, _ := NewRAID0(2, 1000, 10)
	r1, _ := NewRAID1(2, 1000)
	for _, c := range couplings {
		for _, flat := range []Layout{j, r0} {
			_, a, _ := c.build(t, flat)
			if err := a.CanFailMember(0); err == nil {
				t.Fatalf("%s: %s (no redundancy) passed the failure preflight", c.name, flat.Name())
			}
			if err := a.FailMember(0); err == nil {
				t.Fatalf("%s: %s (no redundancy) accepted a member failure", c.name, flat.Name())
			}
		}

		_, m, _ := c.build(t, r1)
		if err := m.FailMember(-1); err == nil {
			t.Fatalf("%s: negative member accepted", c.name)
		}
		if err := m.FailMember(2); err == nil {
			t.Fatalf("%s: out-of-range member accepted", c.name)
		}
		if err := m.RepairMember(1); err == nil {
			t.Fatalf("%s: repairing healthy member accepted", c.name)
		}
		if err := m.FailMember(0); err != nil {
			t.Fatalf("%s: FailMember(0): %v", c.name, err)
		}
		if err := m.FailMember(0); err == nil {
			t.Fatalf("%s: double failure accepted", c.name)
		}
		if err := m.FailMember(1); err == nil {
			t.Fatalf("%s: second concurrent failure accepted", c.name)
		}
		if !m.Degraded() {
			t.Fatalf("%s: array not reported degraded", c.name)
		}
		if err := m.RepairMember(0); err != nil {
			t.Fatalf("%s: RepairMember: %v", c.name, err)
		}
		if m.Degraded() {
			t.Fatalf("%s: array degraded after repair", c.name)
		}
		if err := m.RepairMember(0); err == nil {
			t.Fatalf("%s: repairing healthy member accepted", c.name)
		}
		if err := m.RepairMember(9); err == nil {
			t.Fatalf("%s: repairing out-of-range member accepted", c.name)
		}
	}
}

func TestRAID1ReadSurvivesMirrorFailure(t *testing.T) {
	r1, _ := NewRAID1(2, 1000)
	eng, a, disks := fakeArray(t, r1, nil)
	if err := a.FailMember(0); err != nil {
		t.Fatal(err)
	}
	completed := 0
	eng.At(0, func() {
		// Several reads: round-robin would send half to mirror 0, but all
		// must be redirected to mirror 1.
		for i := 0; i < 6; i++ {
			a.Submit(trace.Request{LBA: int64(i) * 10, Sectors: 8, Read: true},
				func(float64) { completed++ })
		}
	})
	eng.Run()
	if completed != 6 {
		t.Fatalf("completed %d of 6 degraded reads", completed)
	}
	if len(disks[0].ops) != 0 {
		t.Fatalf("failed mirror received %d ops", len(disks[0].ops))
	}
	if len(disks[1].ops) != 6 {
		t.Fatalf("surviving mirror received %d ops, want 6", len(disks[1].ops))
	}
	if a.Reconstructed() == 0 {
		t.Fatalf("no reconstructions recorded")
	}
}

func TestRAID1WriteSkipsFailedMirror(t *testing.T) {
	r1, _ := NewRAID1(3, 1000)
	eng, a, disks := fakeArray(t, r1, nil)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	done := false
	eng.At(0, func() {
		a.Submit(trace.Request{LBA: 0, Sectors: 8, Read: false}, func(float64) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatalf("degraded write never completed")
	}
	if len(disks[1].ops) != 0 {
		t.Fatalf("failed mirror received a write")
	}
	if len(disks[0].ops) != 1 || len(disks[2].ops) != 1 {
		t.Fatalf("surviving mirrors ops: %d/%d", len(disks[0].ops), len(disks[2].ops))
	}
}

// lbaOn returns a logical address whose data lives on member dev.
func lbaOn(t *testing.T, r5 *RAID5, dev int) int64 {
	t.Helper()
	for probe := int64(0); probe < 300; probe += 10 {
		if _, d, _ := r5.locate(probe); d == dev {
			return probe
		}
	}
	t.Fatalf("no address mapping to member %d found", dev)
	return -1
}

func TestRAID5ReadReconstructsFromSurvivors(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	eng, a, disks := fakeArray(t, r5, nil)

	lba := lbaOn(t, r5, 2)
	if err := a.FailMember(2); err != nil {
		t.Fatal(err)
	}
	done := false
	eng.At(0, func() {
		a.Submit(trace.Request{LBA: lba, Sectors: 10, Read: true}, func(float64) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatalf("reconstruction read never completed")
	}
	if len(disks[2].ops) != 0 {
		t.Fatalf("failed member received %d ops", len(disks[2].ops))
	}
	// The read expands to one op on each of the three survivors.
	total := len(disks[0].ops) + len(disks[1].ops) + len(disks[3].ops)
	if total != 3 {
		t.Fatalf("reconstruction issued %d survivor ops, want 3", total)
	}
	if a.Reconstructed() != 1 {
		t.Fatalf("Reconstructed = %d, want 1", a.Reconstructed())
	}
}

func TestRAID5DegradedWriteStillCompletes(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	eng, a, _ := fakeArray(t, r5, nil)
	lba := lbaOn(t, r5, 1)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var doneAt float64
	eng.At(0, func() {
		a.Submit(trace.Request{LBA: lba, Sectors: 5, Read: false},
			func(at float64) { doneAt = at })
	})
	eng.Run()
	// RMW still runs: phase 1 reconstructs the old data (reads on
	// survivors) and reads parity; phase 2 writes parity (data write
	// dropped). Completion at 2 ms-per-phase with 1 ms fakes: >= 2.
	if doneAt < 2 {
		t.Fatalf("degraded RMW completed at %v, want >= 2 (two phases)", doneAt)
	}
}

func TestHealthyArrayUnaffectedByDegradedPaths(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	eng, a, _ := fakeArray(t, r5, nil)
	done := 0
	eng.At(0, func() {
		for i := int64(0); i < 10; i++ {
			a.Submit(trace.Request{LBA: i * 10, Sectors: 10, Read: true},
				func(float64) { done++ })
		}
	})
	eng.Run()
	if done != 10 || a.Reconstructed() != 0 {
		t.Fatalf("healthy array: done=%d reconstructed=%d", done, a.Reconstructed())
	}
}

// Degraded reads slow the array down: reconstruction multiplies member
// ops. Verify with uneven fake latencies.
func TestReconstructionCostsMoreTime(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)

	run := func(fail bool) float64 {
		eng, a, _ := fakeArray(t, r5, []float64{1, 3, 1, 1})
		lba := lbaOn(t, r5, 0)
		if fail {
			if err := a.FailMember(0); err != nil {
				t.Fatal(err)
			}
		}
		var doneAt float64
		eng.At(0, func() {
			a.Submit(trace.Request{LBA: lba, Sectors: 10, Read: true},
				func(at float64) { doneAt = at })
		})
		eng.Run()
		return doneAt
	}
	healthy := run(false) // direct read from fast member 0: 1 ms
	degraded := run(true) // must touch slow member 1: 3 ms
	if !(healthy < degraded) {
		t.Fatalf("reconstruction not slower: healthy %v vs degraded %v", healthy, degraded)
	}
}
