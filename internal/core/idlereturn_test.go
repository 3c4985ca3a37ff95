package core

import (
	"math/rand"
	"testing"

	"repro/internal/simkit"
	"repro/internal/trace"
)

// Idle-return extension: arms stranded outside a concentrated footprint
// migrate back toward the active band and become useful again.

// concentratedTrace targets only the first tenth of the drive.
func concentratedTrace(seed int64, n int, meanGapMs float64, capacity int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]trace.Request, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * meanGapMs
		tr[i] = trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity/10 - 64),
			Sectors:   8,
			Read:      false,
		}
	}
	return tr
}

func TestIdleReturnRecoversStrandedArms(t *testing.T) {
	run := func(idleReturn bool) []uint64 {
		eng := simkit.New()
		m := smallModel()
		// Stranding requires long seeks to cost more than a rotation:
		// use a full-stroke curve like the Barracuda's.
		m.SingleCylMs, m.AvgSeekMs, m.FullStrokeMs = 0.8, 8.5, 17
		// Strand arms 1..3 far outside the footprint.
		d, err := New(eng, m, Config{
			Actuators:   4,
			IdleReturn:  idleReturn,
			InitialCyls: []int{0, 1200, 1500, 1900},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := concentratedTrace(81, 600, 10, d.Capacity())
		replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
		return d.ServicedByArm()
	}

	stranded := run(false)
	recovered := run(true)

	// Without idle return, the far arms barely participate.
	strandedWork := stranded[1] + stranded[2] + stranded[3]
	recoveredWork := recovered[1] + recovered[2] + recovered[3]
	if recoveredWork <= strandedWork {
		t.Fatalf("idle return did not increase far-arm participation: %v vs %v",
			recovered, stranded)
	}
	if recoveredWork < 50 {
		t.Fatalf("far arms still mostly idle with idle return: %v", recovered)
	}
}

func TestIdleReturnImprovesConcentratedResponse(t *testing.T) {
	run := func(idleReturn bool) float64 {
		eng := simkit.New()
		d, err := New(eng, smallModel(), Config{
			Actuators:   4,
			IdleReturn:  idleReturn,
			InitialCyls: []int{0, 1200, 1500, 1900},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := concentratedTrace(82, 800, 7, d.Capacity())
		return mean(replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr))
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("idle return did not improve mean response: %.2f vs %.2f", with, without)
	}
}

func TestIdleReturnCompletesAllWork(t *testing.T) {
	eng := simkit.New()
	d, err := New(eng, smallModel(), Config{Actuators: 3, IdleReturn: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(83, 500, 8, d.Capacity())
	resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed with idle return", i)
		}
	}
}
