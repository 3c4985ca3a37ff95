package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge value=%g max=%g, want 2 and 7", g.Value(), g.Max())
	}
	g.Add(-2)
	if g.Value() != 0 || g.Max() != 7 {
		t.Fatalf("gauge after Add: value=%g max=%g", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1.0, 1.5, 3.0, 100.0} {
		h.Observe(x)
	}
	// (.., 1] gets 0.5 and 1.0; (1, 2] gets 1.5; (2, 4] gets 3.0;
	// overflow gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if got := h.Mean(); math.Abs(got-21.2) > 1e-12 {
		t.Fatalf("mean = %g", got)
	}
}

func TestHistogramRejectsBadEdges(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, edges := range [][]float64{
		nil,
		{1, 1},
		{2, 1},
		{0, negZero}, // equal values: -0 == +0
		{negZero, 0},
		{nan},
		{nan, 1},
		{1, nan},
		{1, nan, 2}, // a NaN between ascending edges
		{math.Inf(1), math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edges %v accepted", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatalf("counter not stable")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatalf("gauge not stable")
	}
	if r.Histogram("h", PhaseEdgesMs) != r.Histogram("h", nil) {
		t.Fatalf("histogram not stable")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(2)
	r.Histogram("h", nil).Observe(1)

	var s Snapshot
	r.Fill(&s)
	if s.Counters["a"] != 3 || s.Gauges["g"].Value != 2 || s.Histograms["h"].N != 1 {
		t.Fatalf("fill lost instruments: %+v", s)
	}
	// Fill deep-copies: later instrument updates must not leak in.
	r.Counter("a").Inc()
	r.Histogram("h", nil).Observe(1)
	if s.Counters["a"] != 3 || s.Histograms["h"].N != 1 {
		t.Fatalf("snapshot aliases live instruments")
	}
	// Maps are allocated even for absent instrument kinds, so callers
	// can append snapshot-only entries.
	var empty Snapshot
	NewRegistry().Fill(&empty)
	empty.Counters["extra"] = 1
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{
		Device:    "d0",
		Kind:      "disk",
		Submitted: 10, Completed: 9, CacheHits: 2,
		Queue:    QueueStats{Len: 1, Max: 5},
		Counters: map[string]uint64{"flushes": 3},
		Gauges:   map[string]GaugeValue{"dirty": {Value: 1, Max: 4}},
		Histograms: map[string]Histogram{
			"seek_ms": {Edges: []float64{1, 2}, Counts: []uint64{1, 2, 3}, Sum: 9, N: 6},
		},
		Children: []Snapshot{{Device: "c0", Submitted: 1}},
	}
	b := Snapshot{
		Device:    "d1",
		Kind:      "disk",
		Submitted: 5, Completed: 5, CacheHits: 1,
		Queue:    QueueStats{Len: 2, Max: 3},
		Counters: map[string]uint64{"flushes": 2, "defect_hops": 7},
		Gauges:   map[string]GaugeValue{"dirty": {Value: 2, Max: 9}},
		Histograms: map[string]Histogram{
			"seek_ms": {Edges: []float64{1, 2}, Counts: []uint64{1, 0, 1}, Sum: 4, N: 2},
		},
		Children: []Snapshot{{Device: "c0", Submitted: 2}, {Device: "c1", Submitted: 4}},
	}
	m := a.Merge(b)
	if m.Device != "d0" || m.Kind != "disk" {
		t.Fatalf("identity not kept: %q/%q", m.Device, m.Kind)
	}
	if m.Submitted != 15 || m.Completed != 14 || m.CacheHits != 3 {
		t.Fatalf("counters wrong: %+v", m)
	}
	if m.Queue.Len != 3 || m.Queue.Max != 5 {
		t.Fatalf("queue merge wrong: %+v", m.Queue)
	}
	if m.Counters["flushes"] != 5 || m.Counters["defect_hops"] != 7 {
		t.Fatalf("registry counters wrong: %v", m.Counters)
	}
	if g := m.Gauges["dirty"]; g.Value != 3 || g.Max != 9 {
		t.Fatalf("gauge merge wrong: %+v", g)
	}
	h := m.Histograms["seek_ms"]
	if h.N != 8 || h.Sum != 13 || h.Counts[0] != 2 || h.Counts[2] != 4 {
		t.Fatalf("histogram merge wrong: %+v", h)
	}
	if len(m.Children) != 2 || m.Children[0].Submitted != 3 || m.Children[1].Submitted != 4 {
		t.Fatalf("children merge wrong: %+v", m.Children)
	}
	// Merge must not mutate its operands.
	if a.Submitted != 10 || b.Submitted != 5 || a.Counters["flushes"] != 3 {
		t.Fatalf("merge mutated an operand")
	}
}

func TestMergePanicsOnEdgeMismatch(t *testing.T) {
	a := Snapshot{Histograms: map[string]Histogram{
		"h": {Edges: []float64{1}, Counts: []uint64{0, 0}},
	}}
	b := Snapshot{Histograms: map[string]Histogram{
		"h": {Edges: []float64{2}, Counts: []uint64{0, 0}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatalf("edge mismatch accepted")
		}
	}()
	a.Merge(b)
}

type clockAt float64

func (c clockAt) Now() float64 { return float64(c) }

type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestNilEmitterIsFree(t *testing.T) {
	var e *Emitter
	if e := NewEmitter(clockAt(0), nil, "d"); e != nil {
		t.Fatalf("nil sink built a live emitter")
	}
	// Every method must be callable on the nil emitter.
	if e.NextReq() != 0 {
		t.Fatalf("nil emitter allocated a request id")
	}
	e.Submit(1, 0, 8, true)
	e.Span(1, PhaseSeek, 0, 0, 1)
	e.Service(1, 0, 0, 0.2, 1, 2, 3)
	e.Complete(1, 0, 0)
	e.CacheHit(1, 0.5)
}

func TestEmitterSpanSequence(t *testing.T) {
	sink := &MemorySink{}
	clock := &fakeClock{t: 10}
	e := NewEmitter(clock, sink, "dev0")
	req := e.NextReq()
	e.Submit(req, 100, 8, true)
	// Dispatch at t=10 of a request submitted at t=4, then complete at
	// the end of its 0.2+1+2+3 ms service.
	e.Service(req, 1, 4, 0.2, 1.0, 2.0, 3.0)
	clock.t = 16.2
	e.Complete(req, 1, 4)

	evs := sink.Events()
	phases := []Phase{PhaseSubmit, PhaseQueue, PhaseOverhead, PhaseSeek, PhaseRotate, PhaseTransfer, PhaseComplete}
	if len(evs) != len(phases) {
		t.Fatalf("got %d events, want %d", len(evs), len(phases))
	}
	for i, ph := range phases {
		if evs[i].Phase != ph {
			t.Fatalf("event %d phase %q, want %q", i, evs[i].Phase, ph)
		}
		if evs[i].Dev != "dev0" || evs[i].Req != req {
			t.Fatalf("event %d mislabeled: %+v", i, evs[i])
		}
	}
	// Queue wait is measured from the submit time to the dispatch time.
	if q := evs[1]; q.TMs != 4 || q.DurMs != 6 {
		t.Fatalf("queue span %+v", q)
	}
	// Mechanical spans start back to back after the overhead.
	if evs[3].TMs != 10.2 || evs[4].TMs != 11.2 || evs[5].TMs != 13.2 {
		t.Fatalf("phase starts %g %g %g", evs[3].TMs, evs[4].TMs, evs[5].TMs)
	}
	// The complete span carries the response time from submit.
	if c := evs[6]; math.Abs(c.DurMs-12.2) > 1e-12 {
		t.Fatalf("complete span %+v", c)
	}

	lcs := Lifecycles(evs)
	if len(lcs) != 1 {
		t.Fatalf("got %d lifecycles", len(lcs))
	}
	lc := lcs[0]
	if lc.Arm != 1 || !lc.Complete || lc.CacheHit {
		t.Fatalf("lifecycle %+v", lc)
	}
	// The schema invariant: the phase decomposition sums to the
	// measured response time.
	if math.Abs(lc.PhaseSumMs()-lc.ResponseMs) > 1e-12 {
		t.Fatalf("phase sum %g != response %g", lc.PhaseSumMs(), lc.ResponseMs)
	}
}

func TestJSONLDeterministicFormat(t *testing.T) {
	evs := []Event{
		{TMs: 1.5, Dev: "d", Req: 1, Phase: PhaseSubmit, Arm: -1, LBA: 10, Sectors: 8, Read: true},
		{TMs: 2, Dev: "d", Req: 1, Phase: PhaseComplete, Arm: 0, DurMs: 0.5},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	want := `{"t":1.5,"dev":"d","req":1,"phase":"submit","arm":-1,"dur_ms":0,"lba":10,"sectors":8,"read":true}`
	if lines[0] != want {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	// Round-trips through encoding/json.
	var back Event
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil {
		t.Fatal(err)
	}
	if back != evs[1] {
		t.Fatalf("round trip %+v != %+v", back, evs[1])
	}
}

func TestMemorySinkWriteJSONL(t *testing.T) {
	sink := &MemorySink{}
	sink.Emit(Event{Dev: "d", Req: 1, Phase: PhaseSubmit, Arm: -1})
	var buf bytes.Buffer
	if err := sink.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"phase":"submit"`) {
		t.Fatalf("output %q", buf.String())
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	s := Snapshot{
		Device: "d0", Kind: "disk", Submitted: 2, Completed: 2,
		Counters: map[string]uint64{"b": 1, "a": 2},
		Gauges:   map[string]GaugeValue{"z": {Value: 1, Max: 2}, "y": {}},
		Children: []Snapshot{{Device: "c", Kind: "child"}},
	}
	var one, two bytes.Buffer
	WriteText(&one, s)
	WriteText(&two, s)
	if one.String() != two.String() {
		t.Fatalf("WriteText not deterministic")
	}
	out := one.String()
	if strings.Index(out, "counter a") > strings.Index(out, "counter b") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, "  c (child)") {
		t.Fatalf("child not indented:\n%s", out)
	}
}
