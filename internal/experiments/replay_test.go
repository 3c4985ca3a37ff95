package experiments

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
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

// instantDevice completes every request inside Submit, so a replay onto
// it holds one request in flight and one pending arrival at any length.
type instantDevice struct{ now func() float64 }

func (d instantDevice) Submit(_ trace.Request, done device.Done) { done(d.now()) }

func (instantDevice) Power(float64) (b power.Breakdown) { return b }

func (instantDevice) Capacity() int64 { return 1 << 40 }

// TestReplayAllocationsIgnoreLength checks that a replay of a stream
// that reports its length sizes its response sample once: replaying
// 1 000 and 100 000 requests makes the same number of allocations,
// where a sample grown by doubling would make seven more at the larger
// length. Each stream the drivers replay is covered: the generator, its
// HC-SD remap, its bound check, and the RAID study's generator.
func TestReplayAllocationsIgnoreLength(t *testing.T) {
	spec := trace.Websearch()
	offsets, err := HCSDOffsets(spec)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]func(n int) (trace.Stream, error){
		"generator": func(n int) (trace.Stream, error) {
			return trace.NewGenerator(spec.WithRequests(n), 1)
		},
		"remap": func(n int) (trace.Stream, error) {
			g, err := trace.NewGenerator(spec.WithRequests(n), 1)
			return trace.RemapStream(g, offsets), err
		},
		"bound": func(n int) (trace.Stream, error) {
			g, err := trace.NewGenerator(spec.WithRequests(n), 1)
			return trace.BoundStream(g, spec.Disks, 1<<40), err
		},
		"workload": func(n int) (trace.Stream, error) {
			return workload.NewGenerator(workload.Paper(workload.Heavy, 1<<30).WithRequests(n), 1)
		},
	}
	for name, build := range streams {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(10, func() {
				s, err := build(n)
				if err != nil {
					t.Fatal(err)
				}
				eng := simkit.New()
				resp, err := ReplayStream(eng, instantDevice{eng.Now}, s)
				if err != nil || resp.Count() != n {
					t.Fatalf("%s: replayed %d of %d requests: %v", name, resp.Count(), n, err)
				}
			})
		}
		if short, long := allocs(1000), allocs(100_000); short != long {
			t.Fatalf("%s: replaying 1 000 requests made %v allocations, 100 000 made %v; want equal",
				name, short, long)
		}
	}
}

// BenchmarkReplayStream replays a 100 000-request HC-SD stream (the
// Websearch generator under the HC-SD remap) onto a device that
// completes each request at once, so allocs/op is the replay's own
// set-up: the response sample is one allocation, where growing it by
// doubling from 8 entries would add 14.
func BenchmarkReplayStream(b *testing.B) {
	spec := trace.Websearch().WithRequests(100_000)
	offsets, err := HCSDOffsets(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := trace.NewGenerator(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng := simkit.New()
		resp, err := ReplayStream(eng, instantDevice{eng.Now}, trace.RemapStream(g, offsets))
		if err != nil || resp.Count() != spec.Requests {
			b.Fatalf("replayed %d of %d requests: %v", resp.Count(), spec.Requests, err)
		}
	}
}

// TestSARunSizesSamplesOnce checks that an SA(n) run sizes its response
// and rotational-latency samples from the stream's length: past a fixed
// set-up, each further request costs the 16 bytes of its two
// observations. Samples grown by doubling allocate about twice what
// they keep, about 29 bytes per request at these lengths.
func TestSARunSizesSamplesOnce(t *testing.T) {
	bytes := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := hcsdRun(trace.Websearch(), Config{Requests: n, Seed: 1}, disk.BarracudaES(),
			disk.Options{Actuators: 2}, "HC-SD-SA(2)")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r.RotLat.Count() < n*9/10 {
			t.Fatalf("%d requests made %d media accesses, want most of them", n, r.RotLat.Count())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const short, long = 25_000, 100_000
	perReq := float64(bytes(long)-bytes(short)) / (long - short)
	if perReq > 20 {
		t.Fatalf("each request past %d allocated %.1f bytes, want at most 20", short, perReq)
	}
}
