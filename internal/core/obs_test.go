package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// TestTraceDecomposition replays a trace against an SA(2) drive and
// checks the span stream: every lifecycle completes, mechanical phases
// carry a valid arm id, and the phase decomposition sums to the
// measured response time.
func TestTraceDecomposition(t *testing.T) {
	sink := &obs.MemorySink{}
	eng := simkit.New()
	d, err := New(eng, smallModel(), Config{Actuators: 2, Obs: obs.Options{Sink: sink, Name: "sa2"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(21, 500, 2, d.Capacity())
	resp := replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)

	lcs := obs.Lifecycles(sink.Events())
	if len(lcs) != len(tr) {
		t.Fatalf("got %d lifecycles, want %d", len(lcs), len(tr))
	}
	armSeen := map[int]int{}
	for i, lc := range lcs {
		if !lc.Complete || lc.Dev != "sa2" {
			t.Fatalf("lifecycle %d: %+v", i, lc)
		}
		if math.Abs(lc.PhaseSumMs()-lc.ResponseMs) > 1e-9 {
			t.Fatalf("lifecycle %d: phase sum %g != response %g", i, lc.PhaseSumMs(), lc.ResponseMs)
		}
		if math.Abs(lc.ResponseMs-resp[i]) > 1e-9 {
			t.Fatalf("request %d: traced response %g, measured %g", i, lc.ResponseMs, resp[i])
		}
		if !lc.CacheHit {
			if lc.Arm < 0 || lc.Arm >= 2 {
				t.Fatalf("lifecycle %d served by arm %d", i, lc.Arm)
			}
			armSeen[lc.Arm]++
		}
	}
	// Both actuators served traffic, and the per-arm tallies agree with
	// the drive's own counters.
	by := d.ServicedByArm()
	for a := 0; a < 2; a++ {
		if armSeen[a] == 0 {
			t.Fatalf("arm %d served nothing (per trace)", a)
		}
		if uint64(armSeen[a]) != by[a] {
			t.Fatalf("arm %d: trace says %d, drive says %d", a, armSeen[a], by[a])
		}
	}
}

// TestSnapshotConsistency pins the uniform stats surface (the drive's
// only metrics API since the per-getter surface was removed) to the
// replayed trace, the taxonomy and the per-arm service counts.
func TestSnapshotConsistency(t *testing.T) {
	eng, d := newSA(t, 4)
	tr := randomTrace(22, 400, 1.5, d.Capacity())
	replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)

	s := d.Snapshot()
	if d.Taxonomy().String() != "D1A4S1H1" {
		t.Fatalf("taxonomy %s", d.Taxonomy())
	}
	if s.Kind != "parallel-drive" || s.Device != "test-small" {
		t.Fatalf("identity %q/%q", s.Device, s.Kind)
	}
	if s.Submitted != uint64(len(tr)) || s.Completed != uint64(len(tr)) {
		t.Fatalf("typed fields %+v after a drained replay of %d requests", s, len(tr))
	}
	if s.BackgroundCompleted != d.BackgroundCompleted() {
		t.Fatalf("background %d vs %d", s.BackgroundCompleted, d.BackgroundCompleted())
	}
	if s.Queue.Len != 0 || s.Queue.Max < 1 {
		t.Fatalf("queue %+v after a drained replay", s.Queue)
	}
	if g, ok := s.Gauges["bg_queue_len"]; !ok || g.Value != 0 || len(s.Gauges) != 1 {
		t.Fatalf("gauges %v, want only an empty bg_queue_len", s.Gauges)
	}
	if s.Counters["healthy_arms"] != uint64(d.HealthyArms()) {
		t.Fatalf("healthy_arms %d vs %d", s.Counters["healthy_arms"], d.HealthyArms())
	}
	var serviced uint64
	for i, n := range d.ServicedByArm() {
		key := fmt.Sprintf("arm%d_serviced", i)
		if s.Counters[key] != n {
			t.Fatalf("%s = %d, want %d", key, s.Counters[key], n)
		}
		serviced += n
	}
	media := s.Completed - s.CacheHits
	if serviced != media {
		t.Fatalf("arms serviced %d, want %d media services", serviced, media)
	}
	if h := s.Histograms["seek_ms"]; h.N != media || h.N == 0 {
		t.Fatalf("seek histogram N=%d, want %d", h.N, media)
	}
}

// TestTracingDoesNotPerturb runs the same trace with and without a
// sink: response times must be bit-identical.
func TestTracingDoesNotPerturb(t *testing.T) {
	capEng := simkit.New()
	capDrive, err := NewSA(capEng, smallModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(23, 300, 2, capDrive.Capacity())

	run := func(o obs.Options) []float64 {
		eng := simkit.New()
		d, err := New(eng, smallModel(), Config{Actuators: 2, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return replay(eng, func(r trace.Request, f func(float64)) { d.Submit(r, f) }, tr)
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
