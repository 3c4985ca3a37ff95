package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// quietDevice allocates nothing per request once warm: it completes
// requests in arrival order a fixed 0.5 ms after each is submitted,
// through one engine event built with the device.
type quietDevice struct {
	s       simkit.Scheduler
	pending []device.Done
	head    int
	fire    simkit.Event // d.complete, bound once
}

func newQuietDevice(s simkit.Scheduler) *quietDevice {
	d := &quietDevice{s: s}
	d.fire = d.complete
	return d
}

func (d *quietDevice) Submit(_ trace.Request, done device.Done) {
	d.pending = append(d.pending, done)
	d.s.After(0.5, d.fire)
}

func (d *quietDevice) complete() {
	done := d.pending[d.head]
	d.pending[d.head] = nil
	d.head++
	if d.head == len(d.pending) {
		d.pending, d.head = d.pending[:0], 0
	}
	done(d.s.Now())
}

func (d *quietDevice) Power(float64) (b power.Breakdown) { return b }

func (d *quietDevice) Capacity() int64 { return 1 << 40 }

// TestReplayStreamAllocationsAreAmortized pins the replay driver's
// per-request cost at zero allocations: a 20 000-request replay onto a
// device that allocates nothing per request may allocate only for its
// set-up and the amortized growth of the response sample, the engine's
// heap and the completion pool — far below one allocation per request.
func TestReplayStreamAllocationsAreAmortized(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(5))
	tr := make([]trace.Request, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * 0.4 // some requests overlap in flight
		tr[i] = trace.Request{ArrivalMs: now, LBA: rng.Int63n(1 << 30), Sectors: 8, Read: true}
	}
	count := 0
	allocs := testing.AllocsPerRun(1, func() {
		eng := simkit.New()
		resp, err := ReplayStream(eng, newQuietDevice(eng), tracetest.Stream(tr))
		if err != nil {
			t.Fatal(err)
		}
		count = resp.Count()
	})
	if count != n {
		t.Fatalf("replay recorded %d responses, want %d", count, n)
	}
	if allocs >= 200 {
		t.Fatalf("a %d-request replay made %v allocations, want fewer than 200", n, allocs)
	}
}
