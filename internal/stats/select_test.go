package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// adversarialFloat draws from the value classes a sort or a select can
// get wrong: ties from a small pool, subnormals, ±0, ±Inf, NaNs with
// assorted payloads, negatives, magnitudes from 1e-300 to 1e300, and
// response times. nan and negZero gate the classes that send the select
// to its sorted-copy fallback, so a case can exercise the radix path
// alone.
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

// selectsLikeSort checks selectRanks against sort.Float64s on a copy of
// xs for each rank triple in ranks (each nondecreasing), bit for bit,
// and that xs is left as it was. It reports the first failure.
func selectsLikeSort(t *testing.T, xs []float64, ranks [][]int) {
	t.Helper()
	before := slices.Clone(xs)
	want := slices.Clone(xs)
	sort.Float64s(want)
	for _, rs := range ranks {
		got := make([]float64, len(rs))
		selectRanks(xs, rs, got)
		for j, r := range rs {
			if math.Float64bits(got[j]) != math.Float64bits(want[r]) {
				t.Fatalf("n=%d ranks %v: rank %d = %v (%#x), sort.Float64s gives %v (%#x)",
					len(xs), rs, r, got[j], math.Float64bits(got[j]), want[r], math.Float64bits(want[r]))
			}
		}
	}
	if !sameBits(xs, before) {
		t.Fatalf("n=%d: the select reordered the sample", len(xs))
	}
}

// sameBits reports whether a and b hold the same values bit for bit,
// in the same order.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// rankSets lists the ranks to check in a sample of n values: every
// rank alone for a small sample, else a spread of single ranks, and
// triples (nondecreasing, repeats included) that resolve together as
// Summarize's do.
func rankSets(rng *rand.Rand, n int) [][]int {
	if n == 0 {
		return nil
	}
	var sets [][]int
	if n <= 2*gatherMax {
		for r := 0; r < n; r++ {
			sets = append(sets, []int{r})
		}
	} else {
		for _, r := range []int{0, 1, n / 2, n - 2, n - 1, rng.Intn(n), rng.Intn(n)} {
			sets = append(sets, []int{r})
		}
	}
	for i := 0; i < 6; i++ {
		rs := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		if i%3 == 0 {
			rs[1] = rs[0]
		}
		sort.Ints(rs)
		sets = append(sets, rs)
	}
	return append(sets, []int{nearestRank(50, n), nearestRank(90, n), nearestRank(99, n)})
}

// TestPercentileMatchesSort requires the radix select to answer every
// rank with the bits of sort.Float64s' slice at that rank, over sizes on
// both sides of the gather cutoff and large enough to split several
// times, with and without the NaNs and mixed zeros that take the
// fallback, and on narrow keys and heavy ties, where passes find every
// candidate in one bucket.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, gatherMax, gatherMax + 1, 2*gatherMax + 1, 1000, 4096, 20000}
	for c := 0; c < 300; c++ {
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
		selectsLikeSort(t, xs, rankSets(rng, n))
	}
	// Narrow keys: values sharing their top bits, so the select starts
	// low in the key.
	for c := 0; c < 30; c++ {
		xs := make([]float64, 5000)
		base := math.Float64bits(rng.Float64() * 100)
		for i := range xs {
			xs[i] = math.Float64frombits(base + uint64(rng.Intn(1<<uint(8*(1+c%6)))))
		}
		selectsLikeSort(t, xs, rankSets(rng, len(xs)))
	}
	// Wide keys: the sample spans -Inf to +Inf, and more than gatherMax
	// values share the top bucket with +Inf, whose upper end is the
	// key space's.
	for c := 0; c < 10; c++ {
		xs := []float64{math.Inf(-1), math.Inf(1), math.Inf(1)}
		for i := 0; i < 2000; i++ {
			xs = append(xs, math.MaxFloat64*(1-rng.Float64()/1e6))
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		selectsLikeSort(t, xs, rankSets(rng, len(xs)))
	}
	// Heavy ties: most values equal (a drive's constant cache-hit
	// latency) among a spread, all values equal, and two adjacent
	// floats, each repeated past gatherMax.
	for _, a := range []float64{0.125, -3, 5e-324} {
		xs := make([]float64, 4*gatherMax)
		for i := range xs {
			xs[i] = a
			if rng.Intn(2) == 0 {
				xs[i] = math.Nextafter(a, math.Inf(1))
			}
		}
		selectsLikeSort(t, xs, rankSets(rng, len(xs)))
	}
	for c := 0; c < 20; c++ {
		xs := make([]float64, 3000+rng.Intn(3000))
		for i := range xs {
			xs[i] = 0.125
			if c%4 != 0 && rng.Intn(4) == 0 {
				xs[i] = rng.ExpFloat64() * 12
			}
		}
		selectsLikeSort(t, xs, rankSets(rng, len(xs)))
	}
}

// FuzzPercentileMatchesSort reads eight bytes per value (a repeated
// value for a leading byte below 32, so ties are common) and requires
// every rank, alone and in triples, to match sort.Float64s bit for bit.
func FuzzPercentileMatchesSort(f *testing.F) {
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
		// Replicate to cross the gather cutoff.
		for len(xs) > 0 && len(xs) <= 2*gatherMax {
			xs = append(xs, xs...)
		}
		selectsLikeSort(t, xs, rankSets(rand.New(rand.NewSource(int64(len(data)))), len(xs)))
	})
}

// searchCDF is the CDF as computed before the counting pass, verbatim
// but for the sort: sort the sample, then binary-search each edge's
// successor.
func searchCDF(xs, edges []float64) []float64 {
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	out := make([]float64, len(edges))
	for i, e := range edges {
		if len(sorted) == 0 {
			continue
		}
		j := sort.SearchFloat64s(sorted, math.Nextafter(e, math.Inf(1)))
		out[i] = float64(j) / float64(len(sorted))
	}
	return out
}

// searchPDF is PDF as computed from searchCDF's fractions before the
// counting pass.
func searchPDF(xs, edges []float64) []float64 {
	out := make([]float64, len(edges)+1)
	if len(xs) == 0 {
		return out
	}
	prev := 0.0
	for i, c := range searchCDF(xs, edges) {
		out[i] = c - prev
		prev = c
	}
	out[len(edges)] = 1 - prev
	return out
}

// cdfsLikeSearch checks CDF, PDF and FractionAtMost on xs and edges
// against the sort-and-search reference, bit for bit.
func cdfsLikeSearch(t *testing.T, xs, edges []float64) {
	t.Helper()
	s := &Sample{xs: slices.Clone(xs)}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s over %d values, edges %v: entry %d = %v, want %v", what, len(xs), edges, i, got[i], want[i])
			}
		}
	}
	want := searchCDF(xs, edges)
	same("CDF", s.CDF(edges), want)
	same("PDF", s.PDF(edges), searchPDF(xs, edges))
	for i, e := range edges {
		same("FractionAtMost", []float64{s.FractionAtMost(e)}, want[i:i+1])
	}
	if !sameBits(s.xs, xs) {
		t.Fatalf("a CDF query reordered the sample")
	}
}

// edgeSet builds edges from xs's values, their neighbours and the
// special values, ascending (strictly or with repeats) or not.
func edgeSet(rng *rand.Rand, xs []float64, k int, ascending bool) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 5e-324}
	edges := make([]float64, k)
	for i := range edges {
		switch c := rng.Intn(4); {
		case c == 0 || len(xs) == 0:
			edges[i] = special[rng.Intn(len(special))]
		case c == 1:
			edges[i] = xs[rng.Intn(len(xs))]
		case c == 2:
			edges[i] = math.Nextafter(xs[rng.Intn(len(xs))], math.Inf(2*rng.Intn(2)-1))
		default:
			edges[i] = rng.ExpFloat64() * 50
		}
	}
	if ascending {
		edges = slices.DeleteFunc(edges, math.IsNaN)
		sort.Float64s(edges)
	}
	return edges
}

// TestCDFMatchesSearch holds the one-pass CDF to the sort-and-search
// reference on the paper's edges and on random ascending and
// non-ascending edges (repeats, ±0, ±Inf, NaN, and edges at and beside
// sample values), over samples with ties, NaNs and infinities.
func TestCDFMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 400; c++ {
		n := rng.Intn(600)
		pool := []float64{adversarialFloat(rng, []float64{1}, false, false), 5, 10, 200}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = adversarialFloat(rng, pool, c%3 == 0, c%2 == 0)
		}
		cdfsLikeSearch(t, xs, ResponseBucketEdgesMs)
		cdfsLikeSearch(t, xs, RotLatencyBucketEdgesMs)
		k := rng.Intn(40) // past the 16-edge stack buffer too
		cdfsLikeSearch(t, xs, edgeSet(rng, xs, k, true))
		cdfsLikeSearch(t, xs, edgeSet(rng, xs, k, false))
	}
	cdfsLikeSearch(t, []float64{1, math.NaN()}, []float64{math.NaN()})
	cdfsLikeSearch(t, []float64{1, math.Inf(1)}, []float64{math.Inf(1), math.Inf(1)})
	cdfsLikeSearch(t, []float64{1, 2, 3}, []float64{2, math.NaN(), 2})
	cdfsLikeSearch(t, nil, []float64{1, 2})
}

// FuzzCDFMatchesSearch draws a sample from seed with adversarialFloat
// and decodes edges from the fuzz bytes (eight bytes per edge, or for a
// leading byte below 32 a sample value, its neighbour or a special
// value), sorted when asc is set, and holds CDF, PDF and FractionAtMost
// to the sort-and-search reference bit for bit.
func FuzzCDFMatchesSearch(f *testing.F) {
	f.Add(int64(1), uint16(100), true, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(int64(2), uint16(1000), false, []byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 5, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, asc bool, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		pool := []float64{adversarialFloat(rng, []float64{1}, false, false), 5, 10}
		xs := make([]float64, int(n)%3000)
		for i := range xs {
			xs[i] = adversarialFloat(rng, pool, seed%3 == 0, seed%2 == 0)
		}
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		var edges []float64
		for b := data; len(b) >= 8; b = b[8:] {
			switch {
			case b[0] >= 32:
				edges = append(edges, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			case b[0]%3 == 0 && len(xs) > 0:
				edges = append(edges, xs[int(b[1])%len(xs)])
			case b[0]%3 == 1 && len(xs) > 0:
				edges = append(edges, math.Nextafter(xs[int(b[1])%len(xs)], math.Inf(int(b[2]%2)*2-1)))
			default:
				edges = append(edges, special[int(b[1])%len(special)])
			}
		}
		if asc {
			sort.Float64s(edges)
		}
		cdfsLikeSearch(t, xs, edges)
	})
}

// TestQueriesAllocateNothing checks the queries on a warm sample:
// Percentile, Summarize and FractionAtMost allocate nothing, CDF and PDF
// only their result, and none of them reorders the sample.
func TestQueriesAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Sample
	for i := 0; i < 20000; i++ {
		s.Add(rng.ExpFloat64() * 12)
	}
	before := slices.Clone(s.xs)
	for _, q := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Percentile", 0, func() { _ = s.Percentile(90) }},
		{"Summarize", 0, func() { _ = s.Summarize() }},
		{"FractionAtMost", 0, func() { _ = s.FractionAtMost(20) }},
		{"CDF", 1, func() { _ = s.ResponseCDF() }},
		{"PDF", 1, func() { _ = s.RotLatencyPDF() }},
	} {
		if allocs := testing.AllocsPerRun(20, q.f); allocs > q.max {
			t.Errorf("%s allocates %v times per call, want at most %v", q.name, allocs, q.max)
		}
	}
	if !slices.Equal(s.xs, before) {
		t.Fatalf("a query reordered the sample")
	}
}

// TestConcurrentQueries runs queries on one sample from several
// goroutines at once: they only read it, so under -race they must
// neither race nor disagree with the same queries run alone.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var s, other Sample
	for i := 0; i < 5000; i++ {
		s.Add(rng.ExpFloat64() * 12)
		other.Add(rng.ExpFloat64() * 12)
	}
	query := func() [4]float64 {
		return [4]float64{s.Percentile(90), s.Summarize().P99, s.ResponseCDF()[2], KolmogorovDistance(&s, &other)}
	}
	want := query()
	var wg sync.WaitGroup
	got := make([][4]float64, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = query()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != want {
			t.Errorf("goroutine %d: %v, want %v", g, got[g], want)
		}
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
