// Package stats provides the response-time statistics the paper reports:
// cumulative distribution functions over the paper's bucket edges
// (Figures 2, 4, 5, 7), probability density functions of rotational
// latency (Figure 5), percentiles (Figure 8 uses the 90th), and summary
// statistics.
package stats

import (
	"fmt"
	"math"
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
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
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
	s.sorted = false
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
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	mu := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
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
	half := 1.96 * s.StdDev() / math.Sqrt(float64(n))
	return mu - half, mu + half
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		radixSort(s.xs)
		s.sorted = true
	}
}

// radixSort sorts xs in place into exactly the slice sort.Float64s
// yields, allocating nothing. It is an MSD radix sort on each value's
// order-preserving key (radixKey), one byte per level from the top,
// with insertion sort for small buckets. That key orders −0 before +0
// and spreads NaNs by payload, while sort.Float64s treats ±0 as equal
// and puts NaNs first in no defined order; so a slice holding a NaN, or
// both zeros, goes to sort.Float64s instead. Without them, values that
// compare equal have equal bits, so any correct sort gives these bits.
func radixSort(xs []float64) {
	var negZero, posZero bool
	for _, x := range xs {
		switch {
		case x != x:
			sort.Float64s(xs)
			return
		case x == 0 && math.Signbit(x):
			negZero = true
		case x == 0:
			posZero = true
		}
	}
	if negZero && posZero {
		sort.Float64s(xs)
		return
	}
	radixLevel(xs, 56)
}

// radixCutoff is the bucket size at or below which radixLevel switches
// to insertion sort.
const radixCutoff = 32

// radixKey maps x to a key whose unsigned order is x's numeric order:
// a negative value has all its bits flipped, a positive one its sign bit.
func radixKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixLevel sorts xs, whose keys agree above bit shift+8, by the key
// byte at shift and then, bucket by bucket, by the bytes below it. A
// level where every key has the same byte moves nothing.
func radixLevel(xs []float64, shift uint) {
	for len(xs) > radixCutoff {
		var end, next [256]int
		for _, x := range xs {
			end[byte(radixKey(x)>>shift)]++
		}
		if end[byte(radixKey(xs[0])>>shift)] == len(xs) {
			if shift == 0 {
				return
			}
			shift -= 8
			continue
		}
		sum := 0
		for b, c := range end {
			next[b] = sum
			sum += c
			end[b] = sum
		}
		// In-place permutation (American flag sort): each value goes to
		// the next free slot of its bucket, displacing the value there.
		for b := range next {
			for next[b] < end[b] {
				x := xs[next[b]]
				d := int(byte(radixKey(x) >> shift))
				for d != b {
					j := next[d]
					next[d]++
					x, xs[j] = xs[j], x
					d = int(byte(radixKey(x) >> shift))
				}
				xs[next[b]] = x
				next[b]++
			}
		}
		if shift == 0 {
			return
		}
		lo := 0
		for _, hi := range end {
			if hi-lo > 1 {
				radixLevel(xs[lo:hi], shift-8)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(xs); i++ {
		x, j := xs[i], i
		for ; j > 0 && x < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using the
// nearest-rank method. It panics on an empty sample or p out of range.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	s.ensureSorted()
	if p == 0 {
		return s.xs[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// FractionAtMost reports the fraction of observations <= x.
func (s *Sample) FractionAtMost(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDF evaluates the cumulative fractions at the given bucket edges.
// The result has len(edges) entries; the implicit overflow bucket is
// 1 - last entry.
func (s *Sample) CDF(edges []float64) []float64 {
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = s.FractionAtMost(e)
	}
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
	prev := 0.0
	for i, e := range edges {
		c := s.FractionAtMost(e)
		out[i] = c - prev
		prev = c
	}
	out[len(edges)] = 1 - prev
	return out
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
	return Summary{
		Count:  s.Count(),
		Mean:   s.Mean(),
		P50:    s.Percentile(50),
		P90:    s.Percentile(90),
		P99:    s.Percentile(99),
		Max:    s.Max(),
		StdDev: s.StdDev(),
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
// distributions coincide at every observed point. Either sample being
// empty yields 1 (unless both are, which yields 0).
func KolmogorovDistance(a, b *Sample) float64 {
	na, nb := len(a.xs), len(b.xs)
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	a.ensureSorted()
	b.ensureSorted()
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		// Advance past ties so both CDFs are evaluated after all mass
		// at the current point.
		x := a.xs[i]
		if b.xs[j] < x {
			x = b.xs[j]
		}
		for i < na && a.xs[i] == x {
			i++
		}
		for j < nb && b.xs[j] == x {
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
