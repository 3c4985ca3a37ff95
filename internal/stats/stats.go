// Package stats provides the response-time statistics the paper reports:
// cumulative distribution functions over the paper's bucket edges
// (Figures 2, 4, 5, 7), probability density functions of rotational
// latency (Figure 5), percentiles (Figure 8 uses the 90th), and summary
// statistics.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// ResponseBucketEdgesMs are the CDF bucket edges (in ms) the paper's
// response-time figures use; the final implicit bucket is "200+".
var ResponseBucketEdgesMs = []float64{5, 10, 20, 40, 60, 90, 120, 150, 200}

// RotLatencyBucketEdgesMs are the PDF bucket edges the paper's Figure 5
// rotational-latency plots use.
var RotLatencyBucketEdgesMs = []float64{1, 3, 5, 7, 8, 9, 11}

// Sample accumulates observations (response times, latencies, ...).
// It keeps them in insertion order: no query reorders them, so Mean,
// StdDev and CI95 depend only on the data, and readers may query a
// sample concurrently while nothing adds to it.
//
// A sample whose size is unknown grows by doubling in Add, which
// allocates about twice the bytes it finally keeps. A caller that knows
// how many observations are coming calls Grow first, and the sample
// allocates once.
type Sample struct {
	xs []float64
}

// Grow makes room for n more observations in one allocation, so the
// next n calls to Add allocate nothing. n <= 0, or room already there,
// is a no-op.
func (s *Sample) Grow(n int) {
	if n <= cap(s.xs)-len(s.xs) {
		return
	}
	grown := make([]float64, len(s.xs), len(s.xs)+n)
	copy(grown, s.xs)
	s.xs = grown
}

// Add records one observation. Past any room Grow made, the slice grows
// by doubling: append grows a slice past 256 elements by about 1.25x,
// so a large sample would allocate about five times its final size
// along the way.
func (s *Sample) Add(x float64) {
	if len(s.xs) == cap(s.xs) {
		grown := make([]float64, len(s.xs), max(2*cap(s.xs), 8))
		copy(grown, s.xs)
		s.xs = grown
	}
	s.xs = append(s.xs, x)
}

// Count reports the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Merge appends every observation of other into s. A nil or empty other
// is a no-op; other is not modified.
func (s *Sample) Merge(other *Sample) {
	if other == nil || len(other.xs) == 0 {
		return
	}
	s.xs = append(s.xs, other.xs...)
}

// Merge returns a new sample holding all observations of the inputs
// (used to combine per-phase or per-device samples).
func Merge(samples ...*Sample) *Sample {
	out := &Sample{}
	for _, s := range samples {
		if s == nil {
			continue
		}
		out.xs = append(out.xs, s.xs...)
	}
	return out
}

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max reports the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev reports the population standard deviation.
func (s *Sample) StdDev() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.stddev(s.Mean())
}

// stddev is StdDev about the sample's mean mu, which the caller has
// already computed (nonempty sample only).
func (s *Sample) stddev(mu float64) float64 {
	var ss float64
	for _, x := range s.xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.xs)))
}

// CI95 reports the normal-approximation 95% confidence interval of the
// mean: mean ± 1.96·s/√n. An empty sample yields (0, 0); a single
// observation yields a degenerate (mean, mean) interval.
func (s *Sample) CI95() (lo, hi float64) {
	n := len(s.xs)
	if n == 0 {
		return 0, 0
	}
	mu := s.Mean()
	half := 1.96 * s.stddev(mu) / math.Sqrt(float64(n))
	return mu - half, mu + half
}

// Percentile reports the p-th percentile (p in [0,100]) using the
// nearest-rank method. It panics on an empty sample or p out of range
// (NaN included).
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	var out [1]float64
	selectRanks(s.xs, []int{nearestRank(p, len(s.xs))}, out[:])
	return out[0]
}

// nearestRank is the 0-based rank of the p-th percentile of n values.
func nearestRank(p float64, n int) int {
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	if p == 0 {
		return 0
	}
	return max(int(math.Ceil(p/100*float64(n))), 1) - 1
}

// radixKey maps x to a key whose unsigned order is x's numeric order:
// a negative value has all its bits flipped, a positive one its sign bit.
func radixKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyValue inverts radixKey.
func keyValue(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k ^ 1<<63)
	}
	return math.Float64frombits(^k)
}

// maxRanks is the most ranks one selectRanks call resolves (Summarize's
// three percentiles).
const maxRanks = 3

// gatherMax is the candidate count at or below which a select copies
// the candidates' keys to the stack and sorts them.
const gatherMax = 256

// selectRanks sets out[j] to the value at 0-based rank ranks[j] of
// sort.Float64s(copy of xs), bit for bit, for up to maxRanks
// nondecreasing ranks. It reads xs without reordering it and, unless
// xs holds a NaN or both zeros, allocates nothing.
//
// It is a radix select on radixKey. A rank's candidates are the values
// whose keys lie in an interval, at first the sample's key range. Each
// pass splits the interval into at most 256 equal buckets, by the top
// eight bits of a key's offset from the interval's low end (so bits
// every candidate shares are never split on), and narrows it to the
// bucket holding the rank. The pass also records the candidates' own
// key range: the next interval is clipped to it, and when they are all
// equal it is the answer, so a run of ties costs one pass. Once a
// rank's candidates number gatherMax or fewer, a last pass copies their
// keys to the stack and sorts them. Ranks whose intervals coincide
// share each pass, so Summarize's three ranks are resolved together
// until their buckets part.
//
// The key orders −0 before +0 and NaNs by payload, where sort.Float64s
// treats ±0 as equal and puts NaNs first in no defined order, so a
// sample holding a NaN, or both zeros, answers from a sorted copy.
// Otherwise values that compare equal have equal bits, so the rank's
// value is the same whichever sort puts it there.
func selectRanks(xs []float64, ranks []int, out []float64) {
	lo, hi := ^uint64(0), uint64(0)
	var negZero, posZero bool
	for _, x := range xs {
		if x != x {
			selectSorted(xs, ranks, out)
			return
		}
		if x == 0 {
			if math.Signbit(x) {
				negZero = true
			} else {
				posZero = true
			}
		}
		k := radixKey(x)
		lo, hi = min(lo, k), max(hi, k)
	}
	if negZero && posZero {
		selectSorted(xs, ranks, out)
		return
	}
	var st [maxRanks]selectRange
	var done [maxRanks]bool
	for j, r := range ranks {
		st[j] = selectRange{lo, hi, len(xs), r}
	}
	var p radixPass
	for j := range ranks {
		for !done[j] {
			c := st[j]
			if c.lo == c.hi {
				out[j], done[j] = keyValue(c.lo), true
				break
			}
			p.scan(xs, c)
			for i := j; i < len(ranks); i++ {
				if !done[i] && st[i].lo == c.lo && st[i].hi == c.hi {
					out[i], done[i] = p.narrow(&st[i])
				}
			}
		}
	}
}

// selectRange is a rank's candidates during a select: the n values
// whose keys lie in [lo, hi], of which the answer is the r-th smallest
// (from 0).
type selectRange struct {
	lo, hi uint64
	n, r   int
}

// radixPass is one pass of selectRanks over the candidates of a range:
// either a histogram of their key offsets from the range's low end,
// shifted right by shift, with their key range, or, for a range of
// gatherMax or fewer, their sorted keys.
type radixPass struct {
	shift    uint
	min, max uint64
	hist     [256]int
	keys     [gatherMax]uint64
}

// scan makes the pass over xs for the candidates of c.
func (p *radixPass) scan(xs []float64, c selectRange) {
	lo, span := c.lo, c.hi-c.lo
	if c.n <= gatherMax {
		n := 0
		for _, x := range xs {
			if k := radixKey(x); k-lo <= span {
				p.keys[n] = k
				n++
			}
		}
		slices.Sort(p.keys[:n])
		return
	}
	shift := uint(max(bits.Len64(span)-8, 0))
	h := &p.hist
	*h = [256]int{}
	mn, mx := ^uint64(0), uint64(0)
	for _, x := range xs {
		k := radixKey(x)
		if d := k - lo; d <= span {
			h[byte(d>>shift)]++
			mn, mx = min(mn, k), max(mx, k)
		}
	}
	p.shift, p.min, p.max = shift, mn, mx
}

// narrow applies the pass, made for a range equal to c, to c: it
// reports the answer, if the pass found it, or else narrows c to the
// bucket holding its rank.
func (p *radixPass) narrow(c *selectRange) (float64, bool) {
	switch {
	case c.n <= gatherMax:
		return keyValue(p.keys[c.r]), true
	case p.min == p.max:
		return keyValue(p.min), true
	}
	b, r := 0, c.r
	for r >= p.hist[b] {
		r -= p.hist[b]
		b++
	}
	// The bucket's key offsets from c.lo, the last clipped to c.hi's.
	first := uint64(b) << p.shift
	last := min(first+(1<<p.shift-1), c.hi-c.lo)
	*c = selectRange{max(c.lo+first, p.min), min(c.lo+last, p.max), p.hist[b], r}
	return 0, false
}

// selectSorted is selectRanks' answer from a sorted copy of xs.
func selectSorted(xs []float64, ranks []int, out []float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for j, r := range ranks {
		out[j] = sorted[r]
	}
}

// FractionAtMost reports the fraction of observations <= x.
func (s *Sample) FractionAtMost(x float64) float64 {
	var out [1]float64
	s.fractionsAtMost([]float64{x}, out[:])
	return out[0]
}

// CDF evaluates the cumulative fractions at the given bucket edges.
// The result has len(edges) entries; the implicit overflow bucket is
// 1 - last entry.
func (s *Sample) CDF(edges []float64) []float64 {
	out := make([]float64, len(edges))
	s.fractionsAtMost(edges, out)
	return out
}

// PDF evaluates the per-bucket probability mass over the given edges:
// entry 0 covers (-inf, edges[0]], entry i covers (edges[i-1], edges[i]],
// and the final extra entry is the overflow mass.
func (s *Sample) PDF(edges []float64) []float64 {
	out := make([]float64, len(edges)+1)
	if len(s.xs) == 0 {
		return out
	}
	s.fractionsAtMost(edges, out[:len(edges)])
	prev := 0.0
	for i, c := range out[:len(edges)] {
		out[i] = c - prev
		prev = c
	}
	out[len(edges)] = 1 - prev
	return out
}

// maxCountEdges is the most edges fractionsAtMost counts in one pass:
// its branch-free search reads 15 keys, and the last is always padding.
const maxCountEdges = 14

// fractionsAtMost sets out[i] to FractionAtMost(edges[i]) for every
// edge. The fraction at e counts the values v with
// !(v >= Nextafter(e, +Inf)), NaNs included: exactly the index
// sort.SearchFloat64s finds for that threshold in the sample sorted by
// sort.Float64s, which puts NaNs first. When the edges ascend (at most
// maxCountEdges of them, no NaN), so do the thresholds, and one pass
// puts each value in its first bucket, the number of thresholds it is
// at or above; a prefix sum then gives every fraction. Other edges are
// counted one pass per edge.
//
// The pass compares radixKeys, which order like the values except that
// −0 sorts below +0 (no threshold is +0: Nextafter never returns it)
// and NaNs sit at the ends: a negative NaN's key is below every
// threshold's, and a positive NaN's at or above the padding key, whose
// bucket, 15, is added to bucket 0.
func (s *Sample) fractionsAtMost(edges, out []float64) {
	n := float64(len(s.xs))
	if n == 0 {
		return
	}
	// Threshold keys, ascending, padded with the key just above +Inf's.
	var keys [16]uint64
	for i := range keys {
		keys[i] = radixKey(math.Inf(1)) + 1
	}
	ascending := len(edges) <= maxCountEdges
	for i, e := range edges {
		if !ascending || e != e || i > 0 && !(edges[i-1] <= e) {
			ascending = false
			break
		}
		keys[i] = radixKey(math.Nextafter(e, math.Inf(1)))
	}
	if !ascending {
		for i, e := range edges {
			t, c := math.Nextafter(e, math.Inf(1)), 0
			for _, x := range s.xs {
				if !(x >= t) {
					c++
				}
			}
			out[i] = float64(c) / n
		}
		return
	}
	var counts [16]int
	for _, x := range s.xs {
		// A binary search without branches: i counts the keys at or
		// below x's. (The masks change no index; they spare the bounds
		// checks.)
		k := radixKey(x)
		i := 8 * bit(k >= keys[7])
		i += 4 * bit(k >= keys[(i+3)&15])
		i += 2 * bit(k >= keys[(i+1)&15])
		i += bit(k >= keys[i&15])
		counts[i&15]++
	}
	counts[0] += counts[15]
	c := 0
	for i := range out {
		c += counts[i]
		out[i] = float64(c) / n
	}
}

// bit is 1 for true and 0 for false; the compiler sets it from the
// comparison's flags without a branch.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ResponseCDF evaluates the CDF over the paper's response-time buckets.
func (s *Sample) ResponseCDF() []float64 { return s.CDF(ResponseBucketEdgesMs) }

// RotLatencyPDF evaluates the PDF over the paper's rotational-latency
// buckets.
func (s *Sample) RotLatencyPDF() []float64 { return s.PDF(RotLatencyBucketEdgesMs) }

// Summary is a compact numeric summary of a sample.
type Summary struct {
	Count  int
	Mean   float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
	StdDev float64
}

// Summarize computes the Summary (zero value for an empty sample).
func (s *Sample) Summarize() Summary {
	if s.Count() == 0 {
		return Summary{}
	}
	n := len(s.xs)
	var p [3]float64
	selectRanks(s.xs, []int{nearestRank(50, n), nearestRank(90, n), nearestRank(99, n)}, p[:])
	mu := s.Mean()
	return Summary{
		Count:  n,
		Mean:   mu,
		P50:    p[0],
		P90:    p[1],
		P99:    p[2],
		Max:    s.Max(),
		StdDev: s.stddev(mu),
	}
}

// String renders the summary on one line.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f sd=%.2f",
		sm.Count, sm.Mean, sm.P50, sm.P90, sm.P99, sm.Max, sm.StdDev)
}

// KolmogorovDistance reports the two-sample Kolmogorov–Smirnov
// statistic sup |F_a(x) - F_b(x)|: the largest gap between the two
// samples' empirical CDFs, in [0, 1]. It is the calibration study's
// distribution-distance metric — 0 means the response-time
// distributions coincide at every observed point. A NaN in either
// sample yields NaN; otherwise either sample being empty yields 1
// (unless both are, which yields 0). It sorts private copies and leaves
// both samples as they are.
func KolmogorovDistance(a, b *Sample) float64 {
	if slices.ContainsFunc(a.xs, math.IsNaN) || slices.ContainsFunc(b.xs, math.IsNaN) {
		return math.NaN()
	}
	na, nb := len(a.xs), len(b.xs)
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	as, bs := slices.Clone(a.xs), slices.Clone(b.xs)
	sort.Float64s(as)
	sort.Float64s(bs)
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		// Advance past ties so both CDFs are evaluated after all mass
		// at the current point.
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < na && as[i] == x {
			i++
		}
		for j < nb && bs[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	// The tail past the shorter sample's maximum: one CDF is already 1.
	if i < na {
		diff := 1 - float64(i)/float64(na)
		if diff > d {
			d = diff
		}
	}
	if j < nb {
		diff := 1 - float64(j)/float64(nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// FormatCDFRow renders a CDF as the paper's figures tabulate it:
// one "<=edge:frac" pair per bucket plus the overflow bucket.
func FormatCDFRow(edges, cdf []float64) string {
	var b strings.Builder
	for i, e := range edges {
		fmt.Fprintf(&b, "<=%g:%.3f ", e, cdf[i])
	}
	if len(cdf) == len(edges) && len(edges) > 0 {
		fmt.Fprintf(&b, "%g+:%.3f", edges[len(edges)-1], 1-cdf[len(edges)-1])
	}
	return strings.TrimSpace(b.String())
}
