package trace

import (
	"fmt"
	"math/rand"
)

// WorkloadSpec describes one of the paper's commercial workloads: the
// configuration of the original storage array the trace was collected on
// (Table 2) plus the statistical parameters our synthesizer uses to
// reproduce the trace's shape. The paper's traces are not redistributable,
// so the synthesizer is the substitution documented in DESIGN.md: it
// controls exactly the properties the paper's results depend on (arrival
// intensity, read/write mix, locality, sequentiality, transfer sizes,
// footprint spread over the original array).
type WorkloadSpec struct {
	Name     string
	Requests int // request count in the paper's trace

	// Original array configuration (Table 2).
	Disks          int
	DiskCapacityGB float64
	RPM            float64
	Platters       int

	// Arrival process: exponential inter-arrivals with mean
	// MeanInterArrivalMs, modulated by bursts in which a BurstFrac of
	// requests arrive with the mean divided by BurstFactor.
	MeanInterArrivalMs float64
	BurstFrac          float64
	BurstFactor        float64

	// Mix and locality.
	ReadFraction  float64
	SeqRunProb    float64 // probability a request continues the prior run
	FootprintFrac float64 // fraction of each disk's space in active use
	HotFrac       float64 // fraction of the footprint that is "hot"
	HotProb       float64 // probability a random access goes to the hot set
	HotDisks      int     // disks holding the hot tables (0 disables skew)
	HotDiskProb   float64 // probability a request targets a hot disk

	// Transfer sizes: sampled uniformly from SizeChoices (sectors).
	SizeChoices []int
}

// Validate reports the first problem with the spec, if any.
func (s WorkloadSpec) Validate() error {
	switch {
	case s.Requests <= 0:
		return fmt.Errorf("trace: %s: Requests must be positive", s.Name)
	case s.Disks <= 0:
		return fmt.Errorf("trace: %s: Disks must be positive", s.Name)
	case s.DiskCapacityGB <= 0:
		return fmt.Errorf("trace: %s: DiskCapacityGB must be positive", s.Name)
	case s.MeanInterArrivalMs <= 0:
		return fmt.Errorf("trace: %s: MeanInterArrivalMs must be positive", s.Name)
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("trace: %s: ReadFraction outside [0,1]", s.Name)
	case s.SeqRunProb < 0 || s.SeqRunProb > 1:
		return fmt.Errorf("trace: %s: SeqRunProb outside [0,1]", s.Name)
	case s.FootprintFrac <= 0 || s.FootprintFrac > 1:
		return fmt.Errorf("trace: %s: FootprintFrac outside (0,1]", s.Name)
	case s.HotFrac < 0 || s.HotFrac > 1 || s.HotProb < 0 || s.HotProb > 1:
		return fmt.Errorf("trace: %s: hot-set parameters outside [0,1]", s.Name)
	case s.HotDisks < 0 || s.HotDisks > s.Disks:
		return fmt.Errorf("trace: %s: HotDisks %d outside [0,%d]", s.Name, s.HotDisks, s.Disks)
	case s.HotDiskProb < 0 || s.HotDiskProb > 1:
		return fmt.Errorf("trace: %s: HotDiskProb outside [0,1]", s.Name)
	case s.HotDiskProb > 0 && s.HotDisks == 0:
		return fmt.Errorf("trace: %s: HotDiskProb set with no hot disks", s.Name)
	case s.BurstFrac < 0 || s.BurstFrac > 1:
		return fmt.Errorf("trace: %s: BurstFrac outside [0,1]", s.Name)
	case s.BurstFrac > 0 && s.BurstFactor <= 1:
		return fmt.Errorf("trace: %s: BurstFactor must exceed 1 when bursts are enabled", s.Name)
	case len(s.SizeChoices) == 0:
		return fmt.Errorf("trace: %s: SizeChoices empty", s.Name)
	}
	for _, c := range s.SizeChoices {
		if c <= 0 {
			return fmt.Errorf("trace: %s: non-positive size choice %d", s.Name, c)
		}
	}
	return nil
}

// DiskSectors reports the per-disk capacity in 512-byte sectors.
func (s WorkloadSpec) DiskSectors() int64 {
	return int64(s.DiskCapacityGB * 1e9 / 512)
}

// WithRequests returns a copy of the spec scaled to n requests (used to
// run experiments at reduced length with the same statistics).
func (s WorkloadSpec) WithRequests(n int) WorkloadSpec {
	s.Requests = n
	return s
}

// The paper's four commercial workloads. Array configurations are
// Table 2 of the paper; the synthesis parameters are chosen to reproduce
// the published qualitative behavior of each trace (see DESIGN.md §4).
//
// Financial: OLTP at a large financial institution — write-dominated
// small random I/O with strong hot spots, intense enough that even
// three actuators are needed to close the single-drive gap (Fig. 5).
func Financial() WorkloadSpec {
	return WorkloadSpec{
		Name: "Financial", Requests: 5334945,
		Disks: 24, DiskCapacityGB: 19.07, RPM: 10000, Platters: 4,
		MeanInterArrivalMs: 6.5, BurstFrac: 0.3, BurstFactor: 4,
		ReadFraction: 0.23, SeqRunProb: 0.12,
		FootprintFrac: 0.3, HotFrac: 0.15, HotProb: 0.85,
		HotDisks: 1, HotDiskProb: 0.9,
		SizeChoices: []int{4, 8, 8, 8, 16, 16, 24},
	}
}

// Websearch: index serving at a large search engine — almost purely
// random reads at high intensity over a wide footprint.
func Websearch() WorkloadSpec {
	return WorkloadSpec{
		Name: "Websearch", Requests: 4579809,
		Disks: 6, DiskCapacityGB: 19.07, RPM: 10000, Platters: 4,
		MeanInterArrivalMs: 9.0, BurstFrac: 0.05, BurstFactor: 3,
		ReadFraction: 0.99, SeqRunProb: 0.03,
		FootprintFrac: 0.8, HotFrac: 0.08, HotProb: 0.7,
		HotDisks: 2, HotDiskProb: 0.6,
		SizeChoices: []int{16, 16, 32, 32, 64},
	}
}

// TPCC: a 20-warehouse TPC-C run on DB2 — random small I/O, read-mostly
// with a significant write stream.
func TPCC() WorkloadSpec {
	return WorkloadSpec{
		Name: "TPC-C", Requests: 6155547,
		Disks: 4, DiskCapacityGB: 37.17, RPM: 10000, Platters: 4,
		MeanInterArrivalMs: 8.4, BurstFrac: 0.06, BurstFactor: 3,
		ReadFraction: 0.66, SeqRunProb: 0.05,
		FootprintFrac: 0.4, HotFrac: 0.1, HotProb: 0.8,
		HotDisks: 1, HotDiskProb: 0.7,
		SizeChoices: []int{8, 8, 8, 16, 16},
	}
}

// TPCH: the TPC-H power test on DB2 — large, highly sequential scans at
// a light arrival intensity (mean inter-arrival 8.76 ms in the paper),
// so the storage system keeps up even on a single drive.
func TPCH() WorkloadSpec {
	return WorkloadSpec{
		Name: "TPC-H", Requests: 4228725,
		Disks: 15, DiskCapacityGB: 35.96, RPM: 7200, Platters: 6,
		MeanInterArrivalMs: 8.76, BurstFrac: 0.1, BurstFactor: 3,
		ReadFraction: 0.95, SeqRunProb: 0.9,
		FootprintFrac: 0.9, HotFrac: 0.15, HotProb: 0.7,
		SizeChoices: []int{32, 32, 64, 64},
	}
}

// Workloads returns the paper's four workloads in presentation order.
func Workloads() []WorkloadSpec {
	return []WorkloadSpec{Financial(), Websearch(), TPCC(), TPCH()}
}

// WorkloadByName finds a workload spec by its name (case-sensitive).
func WorkloadByName(name string) (WorkloadSpec, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Generator streams the synthesis of a workload trace one request at a
// time, so multi-million-request replays never materialize the full
// trace: a simulation pulls the next arrival as it needs it and the
// working set stays O(1). The same (spec, seed) pair always yields the
// same sequence.
type Generator struct {
	spec      WorkloadSpec
	rng       *rand.Rand
	footprint int64
	hot       int64
	next      []int64 // per-disk sequential-run cursors
	now       float64
	burstLeft int
	emitted   int
}

// NewGenerator validates the spec and prepares a streaming synthesizer.
func NewGenerator(spec WorkloadSpec, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	diskSectors := spec.DiskSectors()
	footprint := int64(float64(diskSectors) * spec.FootprintFrac)
	maxSize := 0
	for _, c := range spec.SizeChoices {
		if c > maxSize {
			maxSize = c
		}
	}
	if footprint <= int64(maxSize) {
		return nil, fmt.Errorf("trace: %s: footprint %d sectors too small for transfers", spec.Name, footprint)
	}
	next := make([]int64, spec.Disks)
	for i := range next {
		next[i] = -1
	}
	return &Generator{
		spec:      spec,
		rng:       rand.New(rand.NewSource(seed)),
		footprint: footprint,
		hot:       int64(float64(footprint) * spec.HotFrac),
		next:      next,
	}, nil
}

// Len reports how many requests the stream has yet to yield.
func (g *Generator) Len() int { return g.spec.Requests - g.emitted }

// Next yields the following request of the stream; ok is false once
// spec.Requests requests have been produced.
func (g *Generator) Next() (r Request, ok bool) {
	if g.emitted >= g.spec.Requests {
		return Request{}, false
	}
	g.emitted++
	spec, rng := &g.spec, g.rng

	// Arrival process: Markov-modulated exponential inter-arrivals (the
	// precise process is documented in DESIGN.md §4).
	mean := spec.MeanInterArrivalMs
	if g.burstLeft > 0 {
		mean /= spec.BurstFactor
		g.burstLeft--
	} else if spec.BurstFrac > 0 && rng.Float64() < spec.BurstFrac/8 {
		// Enter a burst whose length is drawn uniformly from {1..15}
		// (mean 8); entering with probability BurstFrac/8 per
		// non-burst request puts ~BurstFrac of all requests inside
		// bursts in expectation.
		g.burstLeft = 1 + rng.Intn(15)
	}
	g.now += rng.ExpFloat64() * mean

	disk := rng.Intn(spec.Disks)
	if spec.HotDisks > 0 && rng.Float64() < spec.HotDiskProb {
		disk = rng.Intn(spec.HotDisks)
	}
	size := spec.SizeChoices[rng.Intn(len(spec.SizeChoices))]

	var lba int64
	if g.next[disk] >= 0 && rng.Float64() < spec.SeqRunProb {
		lba = g.next[disk]
		if lba+int64(size) > g.footprint {
			lba = 0
		}
	} else if rng.Float64() < spec.HotProb && g.hot > int64(size) {
		lba = rng.Int63n(g.hot - int64(size))
	} else {
		lba = rng.Int63n(g.footprint - int64(size))
	}
	g.next[disk] = lba + int64(size)

	return Request{
		ArrivalMs: g.now,
		Disk:      disk,
		LBA:       lba,
		Sectors:   size,
		Read:      rng.Float64() < spec.ReadFraction,
	}, true
}
