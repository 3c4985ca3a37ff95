// Package workload generates the synthetic request streams of the
// paper's §7.3 RAID study: one million requests, 60% reads, 20%
// sequential, exponentially distributed inter-arrival times with means of
// 8, 4, and 1 ms for light, moderate, and heavy I/O loads (parameters the
// paper bases on Ruemmler & Wilkes' application characterization).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Intensity names the paper's three load levels.
type Intensity int

// The paper's load levels with their mean inter-arrival times.
const (
	Light    Intensity = iota // 8 ms
	Moderate                  // 4 ms
	Heavy                     // 1 ms
)

// MeanInterArrivalMs reports the load level's mean inter-arrival time.
func (i Intensity) MeanInterArrivalMs() float64 {
	switch i {
	case Light:
		return 8
	case Moderate:
		return 4
	case Heavy:
		return 1
	}
	panic(fmt.Sprintf("workload: unknown intensity %d", int(i)))
}

// String names the intensity as the paper's Figure 8 does.
func (i Intensity) String() string {
	switch i {
	case Light:
		return "8 ms"
	case Moderate:
		return "4 ms"
	case Heavy:
		return "1 ms"
	}
	return fmt.Sprintf("Intensity(%d)", int(i))
}

// Intensities returns the paper's three load levels in order.
func Intensities() []Intensity { return []Intensity{Light, Moderate, Heavy} }

// Spec parameterizes a synthetic stream.
type Spec struct {
	Requests           int
	MeanInterArrivalMs float64
	ReadFraction       float64 // paper: 0.6
	SeqFraction        float64 // paper: 0.2
	SizeChoices        []int   // transfer sizes in sectors
	CapacitySectors    int64   // logical space the stream addresses
}

// Validate reports the first problem with the spec, if any.
func (s Spec) Validate() error {
	maxSize := 0
	for _, c := range s.SizeChoices {
		if c <= 0 {
			return fmt.Errorf("workload: non-positive size choice %d", c)
		}
		if c > maxSize {
			maxSize = c
		}
	}
	switch {
	case s.Requests <= 0:
		return fmt.Errorf("workload: Requests must be positive")
	case s.MeanInterArrivalMs <= 0:
		return fmt.Errorf("workload: MeanInterArrivalMs must be positive")
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("workload: ReadFraction outside [0,1]")
	case s.SeqFraction < 0 || s.SeqFraction > 1:
		return fmt.Errorf("workload: SeqFraction outside [0,1]")
	case len(s.SizeChoices) == 0:
		return fmt.Errorf("workload: SizeChoices empty")
	case s.CapacitySectors <= int64(maxSize):
		return fmt.Errorf("workload: capacity %d too small", s.CapacitySectors)
	}
	return nil
}

// Paper returns the §7.3 spec at the given intensity over a logical
// space of capacity sectors. The paper uses one million requests; callers
// running shorter experiments scale Requests down.
func Paper(intensity Intensity, capacitySectors int64) Spec {
	return Spec{
		Requests:           1000000,
		MeanInterArrivalMs: intensity.MeanInterArrivalMs(),
		ReadFraction:       0.6,
		SeqFraction:        0.2,
		SizeChoices:        []int{8, 8, 16, 16, 32},
		CapacitySectors:    capacitySectors,
	}
}

// WithRequests returns a copy scaled to n requests.
func (s Spec) WithRequests(n int) Spec {
	s.Requests = n
	return s
}

// Generator streams the synthesis one request at a time, mirroring
// trace.Generator: replays pull arrivals as the simulation advances
// instead of materializing the full stream per parallel job. The same
// (spec, seed) pair always yields the same sequence. Requests target
// Disk 0 with array-level LBAs; the array layout maps them onto
// members.
type Generator struct {
	spec    Spec
	rng     *rand.Rand
	maxSize int
	now     float64
	nextSeq int64
	emitted int
}

// NewGenerator validates the spec and prepares a streaming synthesizer.
func NewGenerator(spec Spec, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	maxSize := 0
	for _, c := range spec.SizeChoices {
		if c > maxSize {
			maxSize = c
		}
	}
	return &Generator{
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed)),
		maxSize: maxSize,
		nextSeq: -1,
	}, nil
}

var _ trace.Stream = (*Generator)(nil)

// Len reports how many requests the stream has yet to yield.
func (g *Generator) Len() int { return g.spec.Requests - g.emitted }

// Next yields the following request; ok is false once spec.Requests
// requests have been produced.
func (g *Generator) Next() (trace.Request, bool) {
	if g.emitted >= g.spec.Requests {
		return trace.Request{}, false
	}
	g.emitted++
	spec, rng := &g.spec, g.rng
	g.now += rng.ExpFloat64() * spec.MeanInterArrivalMs
	size := spec.SizeChoices[rng.Intn(len(spec.SizeChoices))]
	var lba int64
	if g.nextSeq >= 0 && rng.Float64() < spec.SeqFraction {
		lba = g.nextSeq
		if lba+int64(size) > spec.CapacitySectors {
			lba = 0
		}
	} else {
		lba = rng.Int63n(spec.CapacitySectors - int64(g.maxSize))
	}
	g.nextSeq = lba + int64(size)
	return trace.Request{
		ArrivalMs: g.now,
		LBA:       lba,
		Sectors:   size,
		Read:      rng.Float64() < spec.ReadFraction,
	}, true
}
