package trace

import (
	"fmt"
	"math"
	"sort"
)

// Profiler accumulates one-pass streaming statistics over a request
// stream: everything Stats reports, plus the size histogram, per-disk
// extents and an approximate inter-arrival-gap histogram that the
// calibration fit and traceinfo need. Memory is O(distinct sizes +
// disks + log-range of gaps), independent of trace length.
type Profiler struct {
	n         int
	first     float64
	last      float64
	sumGapSq  float64
	reads     int64
	sizeSum   int64
	maxSize   int
	seq       int64
	maxDisk   int
	footprint int64

	disks map[int]*diskAcc
	sizes map[int]int64

	// Gap log-histogram: 8 sub-buckets per power of two (~9% value
	// resolution), enough for percentile inspection without retaining
	// the gaps themselves.
	gapHist  map[int]int64
	gapCount int64
}

type diskAcc struct {
	lastEnd int64
	maxEnd  int64
	count   int64
}

// NewProfiler prepares an empty profiler; feed it with Add.
func NewProfiler() *Profiler {
	return &Profiler{
		disks:   make(map[int]*diskAcc),
		sizes:   make(map[int]int64),
		gapHist: make(map[int]int64),
	}
}

// Add folds one request into the running statistics. Requests must be
// presented in arrival order (the Reader and all Streams guarantee it).
func (p *Profiler) Add(r Request) {
	if p.n == 0 {
		p.first = r.ArrivalMs
	} else {
		gap := r.ArrivalMs - p.last
		p.sumGapSq += gap * gap
		p.gapHist[gapBucket(gap)]++
		p.gapCount++
	}
	p.last = r.ArrivalMs
	p.n++

	p.sizeSum += int64(r.Sectors)
	if r.Sectors > p.maxSize {
		p.maxSize = r.Sectors
	}
	p.sizes[r.Sectors]++
	if r.Read {
		p.reads++
	}
	if r.Disk > p.maxDisk {
		p.maxDisk = r.Disk
	}
	d := p.disks[r.Disk]
	if d == nil {
		d = &diskAcc{lastEnd: -1}
		p.disks[r.Disk] = d
	}
	if d.lastEnd == r.LBA {
		p.seq++
	}
	d.lastEnd = r.End()
	d.count++
	if r.End() > d.maxEnd {
		d.maxEnd = r.End()
	}
	if r.End() > p.footprint {
		p.footprint = r.End()
	}
}

// Profile is the profiler's result: the familiar Stats plus the
// distributions the calibration fit consumes.
type Profile struct {
	Stats
	Sizes      map[int]int64 // transfer size (sectors) -> request count
	DiskMaxEnd []int64       // per-disk highest block touched

	gapHist  map[int]int64
	gapCount int64
}

// Finish closes the accumulation and reports the profile. The profiler
// may keep accumulating afterwards; Finish snapshots.
func (p *Profiler) Finish() Profile {
	var s Stats
	s.Requests = p.n
	if p.n > 0 {
		s.Disks = p.maxDisk + 1
		s.DurationMs = p.last - p.first
		s.ReadFraction = float64(p.reads) / float64(p.n)
		s.MeanSizeSectors = float64(p.sizeSum) / float64(p.n)
		s.MaxSizeSectors = p.maxSize
		s.SeqFraction = float64(p.seq) / float64(p.n)
		s.FootprintSectors = p.footprint
	}
	if p.n >= 2 {
		s.MeanInterArrivalMs = s.DurationMs / float64(p.n-1)
	}
	if p.n > 2 && s.MeanInterArrivalMs > 0 {
		m := s.MeanInterArrivalMs
		variance := p.sumGapSq/float64(p.n-1) - m*m
		if variance < 0 {
			variance = 0
		}
		s.CV2InterArrival = variance / (m * m)
	}
	if s.Disks > 1 {
		mean := float64(p.n) / float64(s.Disks)
		var ss float64
		for d := 0; d < s.Disks; d++ {
			var c float64
			if acc := p.disks[d]; acc != nil {
				c = float64(acc.count)
			}
			diff := c - mean
			ss += diff * diff
		}
		s.DiskLoadCV = math.Sqrt(ss/float64(s.Disks)) / mean
	}

	sizes := make(map[int]int64, len(p.sizes))
	sizeKeys := make([]int, 0, len(p.sizes))
	for k := range p.sizes {
		sizeKeys = append(sizeKeys, k)
	}
	sort.Ints(sizeKeys)
	for _, k := range sizeKeys {
		sizes[k] = p.sizes[k]
	}
	maxEnd := make([]int64, s.Disks)
	for d := 0; d < s.Disks; d++ {
		if acc := p.disks[d]; acc != nil {
			maxEnd[d] = acc.maxEnd
		}
	}
	hist := make(map[int]int64, len(p.gapHist))
	histKeys := make([]int, 0, len(p.gapHist))
	for k := range p.gapHist {
		histKeys = append(histKeys, k)
	}
	sort.Ints(histKeys)
	for _, k := range histKeys {
		hist[k] = p.gapHist[k]
	}
	return Profile{Stats: s, Sizes: sizes, DiskMaxEnd: maxEnd, gapHist: hist, gapCount: p.gapCount}
}

// gapBucket maps a gap to its log-histogram bucket: 8 sub-buckets per
// binary octave. Non-positive gaps share the floor bucket.
func gapBucket(gap float64) int {
	if gap <= 0 {
		return math.MinInt32
	}
	frac, exp := math.Frexp(gap) // gap = frac * 2^exp, frac in [0.5, 1)
	sub := int((frac - 0.5) * 16)
	if sub > 7 {
		sub = 7
	}
	return exp*8 + sub
}

// gapBucketValue is the representative gap of a bucket (its midpoint).
func gapBucketValue(bucket int) float64 {
	if bucket == math.MinInt32 {
		return 0
	}
	exp, sub := bucket/8, bucket%8
	if sub < 0 { // Go rounds toward zero; normalize the pair
		exp--
		sub += 8
	}
	return math.Ldexp(0.5+(float64(sub)+0.5)/16, exp)
}

// GapPercentile reports the approximate p-th percentile (0..100) of the
// inter-arrival gaps, to the histogram's ~9% value resolution.
func (p Profile) GapPercentile(pct float64) (float64, error) {
	if p.gapCount == 0 {
		return 0, fmt.Errorf("trace: need at least two requests")
	}
	if pct < 0 || pct > 100 {
		return 0, fmt.Errorf("trace: percentile %v out of range", pct)
	}
	keys := make([]int, 0, len(p.gapHist))
	for k := range p.gapHist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rank := int64(pct / 100 * float64(p.gapCount-1))
	var cum int64
	for _, k := range keys {
		cum += p.gapHist[k]
		if cum > rank {
			return gapBucketValue(k), nil
		}
	}
	return gapBucketValue(keys[len(keys)-1]), nil
}

// ProfileStream drains s through a Profiler. An ingestion error on s
// (see Err) is returned; partial statistics are discarded.
func ProfileStream(s Stream) (Profile, error) {
	p := NewProfiler()
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		p.Add(r)
	}
	if err := Err(s); err != nil {
		return Profile{}, err
	}
	return p.Finish(), nil
}

// AnalyzeStream computes Stats over a stream in one pass and O(1)
// memory.
func AnalyzeStream(s Stream) (Stats, error) {
	p, err := ProfileStream(s)
	if err != nil {
		return Stats{}, err
	}
	return p.Stats, nil
}

// burstCV2 is the squared coefficient of variation of the synthesizer's
// arrival mixture: a fraction f of requests draw exponential gaps with
// mean/B, the rest with mean. (The generator's burst runs make the
// process Markov-modulated rather than i.i.d., but the marginal gap
// distribution — which is what CV^2 measures — is this two-phase
// hyperexponential.)
func burstCV2(f, b float64) float64 {
	m := (1 - f) + f/b
	return 2*((1-f)+f/(b*b))/(m*m) - 1
}

// FitWorkload fits synthesizer parameters to a profiled trace: arrival
// rate and CV^2 (via the burst mixture), read fraction, transfer-size
// distribution, sequential fraction and footprint. The returned spec
// generates a synthetic stream whose Stats match the profile's — the
// calibration study then measures how much behavioral fidelity that
// statistical match buys.
func FitWorkload(name string, p Profile) (WorkloadSpec, error) {
	if p.Requests < 2 || p.MeanInterArrivalMs <= 0 {
		return WorkloadSpec{}, fmt.Errorf("trace: fit %s: need at least two distinct arrivals", name)
	}

	spec := WorkloadSpec{
		Name:     name,
		Requests: p.Requests,
		Disks:    p.Disks,
		RPM:      10000, // cosmetic: the replay chooses the drive model
		Platters: 4,

		ReadFraction: p.ReadFraction,
		SeqRunProb:   clamp01(p.SeqFraction),
	}

	// Arrival process: match mean and CV^2 with the burst mixture. A
	// trace at or below Poisson variability (CV^2 <= 1) needs no bursts;
	// above it, pick the smallest burst factor whose mixture can reach
	// the target (smaller factors distort the gap scale less), then
	// bisect the burst fraction on the rising side of the CV^2 curve.
	cv2 := p.CV2InterArrival
	f, b := 0.0, 0.0
	if cv2 > 1 {
		for _, cand := range []float64{2, 4, 8, 16, 32, 64} {
			fPeak, peak := burstPeak(cand)
			if peak >= cv2 {
				f, b = bisectBurst(cand, fPeak, cv2), cand
				break
			}
			if cand == 64 { // steeper than the model can express: best effort
				f, b = fPeak, cand
			}
		}
	}
	spec.BurstFrac, spec.BurstFactor = f, b
	spec.MeanInterArrivalMs = p.MeanInterArrivalMs / ((1 - f) + f/b)
	if f == 0 {
		spec.BurstFactor = 0
		spec.MeanInterArrivalMs = p.MeanInterArrivalMs
	}

	// Transfer sizes: the top-8 sizes by frequency, with integer weights
	// out of 16 expressing their relative shares (SizeChoices samples
	// uniformly, so a weight is a repetition count).
	type sizeCount struct {
		size  int
		count int64
	}
	var total int64
	counts := make([]sizeCount, 0, len(p.Sizes))
	keys := make([]int, 0, len(p.Sizes))
	for k := range p.Sizes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		counts = append(counts, sizeCount{size: k, count: p.Sizes[k]})
		total += p.Sizes[k]
	}
	sort.SliceStable(counts, func(i, j int) bool {
		if counts[i].count != counts[j].count {
			return counts[i].count > counts[j].count
		}
		return counts[i].size < counts[j].size
	})
	if len(counts) > 8 {
		counts = counts[:8]
	}
	for _, c := range counts {
		w := int(math.Round(16 * float64(c.count) / float64(total)))
		if w < 1 {
			w = 1
		}
		for i := 0; i < w; i++ {
			spec.SizeChoices = append(spec.SizeChoices, c.size)
		}
	}
	sort.Ints(spec.SizeChoices)

	// Footprint: size each synthetic disk to the largest real per-disk
	// extent (plus slack so sequential runs can wrap), and use all of it
	// — the synthesizer then spans the same address range the trace did.
	maxEnd := int64(2 * p.MaxSizeSectors)
	for _, e := range p.DiskMaxEnd {
		if e > maxEnd {
			maxEnd = e
		}
	}
	spec.DiskCapacityGB = float64(maxEnd+2048) * 512 / 1e9
	spec.FootprintFrac = 1.0

	if err := spec.Validate(); err != nil {
		return WorkloadSpec{}, fmt.Errorf("trace: fit %s: %v", name, err)
	}
	return spec, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// burstPeak finds the burst fraction maximizing burstCV2(f, b) by
// ternary search on the unimodal curve, reporting (argmax, max).
func burstPeak(b float64) (float64, float64) {
	lo, hi := 0.0, 1.0
	for i := 0; i < 80; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if burstCV2(m1, b) < burstCV2(m2, b) {
			lo = m1
		} else {
			hi = m2
		}
	}
	f := (lo + hi) / 2
	return f, burstCV2(f, b)
}

// bisectBurst solves burstCV2(f, b) = target for f on the rising side
// [0, fPeak], where the curve is monotone increasing.
func bisectBurst(b, fPeak, target float64) float64 {
	lo, hi := 0.0, fPeak
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if burstCV2(mid, b) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
