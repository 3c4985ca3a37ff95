// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) snapshotted into
// a single typed Snapshot, and request-lifecycle tracing that emits span
// events to a pluggable Sink.
//
// Every instrumented component — a disk drive, an intra-disk parallel
// drive, a RAID array, a SMART monitor — exposes the same uniform stats
// surface through device.Instrumented: a Snapshot whose typed fields
// carry the universal quantities (requests, queue occupancy) and whose
// registry maps carry component-specific extras (per-phase service-time
// histograms, defect-hop counters, per-arm service counts).
//
// Instrumentation is deterministic and allocation-light: counters and
// gauges are plain fields, histograms are fixed-bucket arrays, and a nil
// trace Sink costs a single pointer test per emission site, so the
// simulation's event order is never perturbed by observation.
package obs

import "fmt"

// Counter is a monotonically increasing count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level that also remembers its high-water
// mark — the pair of semantics the simulator's queue statistics need
// (see QueueStats).
type Gauge struct {
	v, max float64
}

// Set records the current level, updating the high-water mark.
func (g *Gauge) Set(v float64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the current level by d, updating the high-water mark.
func (g *Gauge) Add(d float64) { g.Set(g.v + d) }

// Value reports the current level.
func (g *Gauge) Value() float64 { return g.v }

// Max reports the high-water mark.
func (g *Gauge) Max() float64 { return g.max }

// GaugeValue is a gauge's snapshot: the level at snapshot time and the
// high-water mark over the run.
type GaugeValue struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// PhaseEdgesMs are the default bucket edges (milliseconds) for
// per-phase service-time histograms (seek, rotational latency,
// transfer). They bracket the mechanical range of a 7200 RPM drive: a
// full revolution is 8.33 ms and a full-stroke seek under 20 ms.
var PhaseEdgesMs = []float64{0.5, 1, 2, 4, 6, 8, 10, 15, 25}

// Histogram counts observations in fixed buckets: bucket i covers
// (Edges[i-1], Edges[i]] with an implicit final overflow bucket, so
// Counts has len(Edges)+1 entries. Sum and N make the mean recoverable.
type Histogram struct {
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	N      uint64    `json:"n"`
}

// NewHistogram builds a histogram over the given strictly ascending,
// NaN-free bucket edges.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	if edges[0] != edges[0] {
		panic(fmt.Sprintf("obs: histogram edge 0 is NaN: %v", edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) { // also rejects NaN
			panic(fmt.Sprintf("obs: histogram edges not ascending at %d: %v", i, edges))
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]uint64, len(edges)+1),
	}
}

// Observe records one observation in the bucket of the first edge >= x,
// the index sort.SearchFloat64s returns: the edges are few, so a forward
// scan beats a binary search. NaN compares false with every edge and
// lands in the overflow bucket.
func (h *Histogram) Observe(x float64) {
	i := 0
	for i < len(h.Edges) && !(h.Edges[i] >= x) {
		i++
	}
	h.Counts[i]++
	h.Sum += x
	h.N++
}

// Mean reports the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Clone deep-copies the histogram.
func (h *Histogram) Clone() Histogram {
	return Histogram{
		Edges:  append([]float64(nil), h.Edges...),
		Counts: append([]uint64(nil), h.Counts...),
		Sum:    h.Sum,
		N:      h.N,
	}
}

// merge adds other's buckets into h. The edge sets must match: merging
// histograms of different shapes is a programming error.
func (h *Histogram) merge(other Histogram) {
	if len(h.Edges) != len(other.Edges) {
		panic(fmt.Sprintf("obs: merging histograms with %d vs %d edges",
			len(h.Edges), len(other.Edges)))
	}
	for i, e := range h.Edges {
		if e != other.Edges[i] {
			panic(fmt.Sprintf("obs: merging histograms with different edges at %d: %v vs %v",
				i, e, other.Edges[i]))
		}
	}
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.Sum += other.Sum
	h.N += other.N
}

// Registry is a named collection of instruments. Components create one
// at construction, hold the returned instrument pointers for their hot
// paths (no map lookups during simulation), and dump the registry into
// their Snapshot.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it over the given
// edges on first use (later calls may pass nil edges).
func (r *Registry) Histogram(name string, edges []float64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(edges)
		r.hists[name] = h
	}
	return h
}

// Fill copies the registry's instruments into the snapshot's maps
// (deep copies: the snapshot never aliases live instruments). The maps
// are always allocated, so callers may add snapshot-only entries after
// filling.
func (r *Registry) Fill(s *Snapshot) {
	s.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]GaugeValue, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	s.Histograms = make(map[string]Histogram, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.Clone()
	}
}
