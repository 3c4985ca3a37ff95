package disk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// obsTrace builds a deterministic random request stream within cap.
func obsTrace(seed int64, n int, meanGapMs float64, capacity int64) []trace.Request {
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

// obsReplay submits the trace and returns per-request response times.
func obsReplay(eng *simkit.Engine, d *Drive, tr []trace.Request) []float64 {
	resp := make([]float64, len(tr))
	for i, r := range tr {
		i, r := i, r
		eng.At(r.ArrivalMs, func() {
			d.Submit(r, func(at float64) { resp[i] = at - r.ArrivalMs })
		})
	}
	eng.Run()
	return resp
}

// TestTracePhaseSumEqualsResponse is the trace schema's core invariant:
// for every completed request, the reconstructed queue + overhead +
// seek + rotate + transfer decomposition sums to the measured response
// time (cache hits decompose as a single cache-hit span).
func TestTracePhaseSumEqualsResponse(t *testing.T) {
	sink := &obs.MemorySink{}
	eng, d := newDrive(t, smallModel(), Options{Obs: obs.Options{Sink: sink, Name: "d0"}})
	tr := obsTrace(11, 400, 4, d.Capacity())
	resp := obsReplay(eng, d, tr)

	lcs := obs.Lifecycles(sink.Events())
	if len(lcs) != len(tr) {
		t.Fatalf("got %d lifecycles, want %d", len(lcs), len(tr))
	}
	hits := 0
	for i, lc := range lcs {
		if !lc.Complete {
			t.Fatalf("lifecycle %d incomplete: %+v", i, lc)
		}
		if lc.Dev != "d0" {
			t.Fatalf("lifecycle %d device %q", i, lc.Dev)
		}
		if math.Abs(lc.PhaseSumMs()-lc.ResponseMs) > 1e-9 {
			t.Fatalf("lifecycle %d: phase sum %g != response %g (%+v)",
				i, lc.PhaseSumMs(), lc.ResponseMs, lc)
		}
		if lc.CacheHit {
			hits++
			if lc.SeekMs != 0 || lc.TransferMs != 0 {
				t.Fatalf("cache hit %d has mechanical phases: %+v", i, lc)
			}
		} else if lc.TransferMs <= 0 {
			t.Fatalf("media request %d has no transfer span: %+v", i, lc)
		}
	}
	if hits != int(d.Snapshot().CacheHits) {
		t.Fatalf("trace shows %d cache hits, drive counted %d", hits, d.Snapshot().CacheHits)
	}
	// Request ids arrive in submission order, so lifecycle i is trace
	// request i: the traced response matches the measured one.
	for i, lc := range lcs {
		if math.Abs(lc.ResponseMs-resp[i]) > 1e-9 {
			t.Fatalf("request %d: traced response %g, measured %g", i, lc.ResponseMs, resp[i])
		}
	}
}

// TestSnapshotConsistency pins the uniform stats surface (the drive's
// only metrics API since the per-getter surface was removed) to facts
// derivable from the replayed trace.
func TestSnapshotConsistency(t *testing.T) {
	eng, d := newDrive(t, smallModel(), Options{WriteCache: true})
	tr := obsTrace(12, 300, 3, d.Capacity())
	obsReplay(eng, d, tr)

	s := d.Snapshot()
	if s.Device != "test-small" || s.Kind != "disk" {
		t.Fatalf("identity %q/%q", s.Device, s.Kind)
	}
	if s.Submitted != uint64(len(tr)) {
		t.Fatalf("submitted %d, want %d", s.Submitted, len(tr))
	}
	if s.Completed != uint64(len(tr)) {
		t.Fatalf("completed %d, want %d", s.Completed, len(tr))
	}
	if s.Queue.Len != 0 || s.Queue.Max < 1 {
		t.Fatalf("queue %+v after a drained replay", s.Queue)
	}
	if s.Counters["flushes"] != d.Flushes() || s.Counters["defect_hops"] != d.DefectHops() {
		t.Fatalf("counters %v vs flushes=%d hops=%d", s.Counters, d.Flushes(), d.DefectHops())
	}
	if d.Flushes() == 0 {
		t.Fatalf("write-back run destaged nothing")
	}
	if g := s.Gauges["dirty_writes"]; int(g.Value) != d.BackgroundPending() {
		t.Fatalf("dirty_writes gauge %+v vs getter %d", g, d.BackgroundPending())
	}
	// The per-phase histograms saw every media service: read misses plus
	// destaged writes (acked writes split into flushes + still-dirty).
	media := s.Completed - s.CacheHits - uint64(d.BackgroundPending())
	if h := s.Histograms["seek_ms"]; h.N != media || h.N == 0 {
		t.Fatalf("seek histogram N=%d, want %d media services", h.N, media)
	}
}

// TestNilSinkIsInert proves observability off means off: no events, and
// response times identical to a traced run of the same trace.
func TestNilSinkIsInert(t *testing.T) {
	capEng := simkit.New()
	capDrive, err := New(capEng, smallModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obsTrace(13, 200, 4, capDrive.Capacity())

	run := func(o obs.Options) []float64 {
		eng, d := newDrive(t, smallModel(), Options{Obs: o})
		return obsReplay(eng, d, tr)
	}
	plain := run(obs.Options{})
	sink := &obs.MemorySink{}
	traced := run(obs.Options{Sink: sink})
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("request %d: tracing perturbed response %g -> %g", i, plain[i], traced[i])
		}
	}
	if len(sink.Events()) == 0 {
		t.Fatalf("traced run emitted nothing")
	}
}
