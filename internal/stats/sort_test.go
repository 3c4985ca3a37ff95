package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortsLikeFloat64s reports the first index where radixSort's result
// differs from sort.Float64s' in bits, or -1.
func sortsLikeFloat64s(xs []float64) int {
	got := append([]float64(nil), xs...)
	want := append([]float64(nil), xs...)
	radixSort(got)
	sort.Float64s(want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// adversarialFloat draws from the value classes a sort can get wrong:
// ties from a small pool, subnormals, ±0, ±Inf, NaNs with assorted
// payloads, negatives, magnitudes from 1e-300 to 1e300, and response
// times. nan and negZero gate the classes that send radixSort to its
// fallback, so a case can exercise the radix path alone.
func adversarialFloat(rng *rand.Rand, pool []float64, nan, negZero bool) float64 {
	sign := 1.0
	if rng.Intn(3) == 0 {
		sign = -1
	}
	switch k := rng.Intn(10); {
	case k == 0:
		return pool[rng.Intn(len(pool))]
	case k == 1:
		return sign * math.Float64frombits(1+uint64(rng.Int63n(1<<52-1))) // subnormal
	case k == 2 && negZero:
		return math.Copysign(0, -1)
	case k == 2:
		return 0
	case k == 3 && nan:
		return math.Float64frombits(0x7ff0000000000001 | uint64(rng.Int63n(1<<51))<<1 | uint64(rng.Intn(2))<<63)
	case k == 3:
		return sign * math.Inf(1)
	case k < 7:
		return sign * math.Pow(10, rng.Float64()*600-300)
	default:
		return rng.ExpFloat64() * 12 // a response time in ms
	}
}

// TestRadixSortMatchesFloat64s requires radixSort to produce, bit for
// bit, the slice sort.Float64s produces, over sizes on both sides of the
// insertion-sort cutoff and large enough to split at every byte level,
// with and without the NaNs and mixed zeros that take the fallback.
func TestRadixSortMatchesFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, radixCutoff, radixCutoff + 1, 100, 257, 1000, 4096, 20000}
	for c := 0; c < 600; c++ {
		n := sizes[c%len(sizes)]
		if c%3 == 0 {
			n = rng.Intn(3000)
		}
		pool := make([]float64, 1+rng.Intn(8))
		for i := range pool {
			pool[i] = adversarialFloat(rng, []float64{1}, false, false)
		}
		nan, negZero := c%7 == 0, c%5 == 0
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = adversarialFloat(rng, pool, nan, negZero)
		}
		if i := sortsLikeFloat64s(xs); i >= 0 {
			t.Fatalf("case %d (n=%d nan=%v negZero=%v): first difference at index %d", c, n, nan, negZero, i)
		}
	}
	// Narrow keys: values sharing their top bytes, so the sort descends
	// through levels where every key has the same byte.
	for c := 0; c < 50; c++ {
		xs := make([]float64, 5000)
		base := math.Float64bits(rng.Float64() * 100)
		for i := range xs {
			xs[i] = math.Float64frombits(base + uint64(rng.Intn(1<<uint(8*(1+c%6)))))
		}
		if i := sortsLikeFloat64s(xs); i >= 0 {
			t.Fatalf("narrow case %d: first difference at index %d", c, i)
		}
	}
}

// FuzzSortMatchesFloat64s reads eight bytes per value (a repeated value
// for a leading byte below 32, so ties are common) and requires
// radixSort to match sort.Float64s bit for bit.
func FuzzSortMatchesFloat64s(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(make([]byte, 8*200))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for b := data; len(b) >= 8; b = b[8:] {
			if b[0] < 32 && len(xs) > 0 {
				xs = append(xs, xs[int(b[1])%len(xs)])
				continue
			}
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		// Replicate to cross the insertion-sort cutoff.
		for len(xs) > 0 && len(xs) <= 4*radixCutoff {
			xs = append(xs, xs...)
		}
		if i := sortsLikeFloat64s(xs); i >= 0 {
			t.Fatalf("%v: first difference at index %d", xs, i)
		}
	})
}

// TestEnsureSortedAllocatesNothing checks the percentile sort on a warm
// sample: re-sorting the same unsorted values allocates nothing.
func TestEnsureSortedAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 12
	}
	var s Sample
	for _, v := range vals {
		s.Add(v)
	}
	allocs := testing.AllocsPerRun(20, func() {
		copy(s.xs, vals)
		s.sorted = false
		s.ensureSorted()
	})
	if allocs != 0 {
		t.Fatalf("ensureSorted allocates %v times per call, want 0", allocs)
	}
}

func TestMaxAnySign(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{-3}, -3},
		{[]float64{-5, -2, -9}, -2},
		{[]float64{-1, 0, -4}, 0},
		{[]float64{2, -7, 11, 4}, 11},
		{[]float64{math.Inf(-1), -1e300}, -1e300},
	} {
		if got := sampleOf(tc.xs...).Max(); got != tc.want {
			t.Errorf("Max(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
