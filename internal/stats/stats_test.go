package stats

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(xs ...float64) *Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 || s.StdDev() != 0 {
		t.Fatalf("empty sample statistics nonzero")
	}
	if s.FractionAtMost(10) != 0 {
		t.Fatalf("empty FractionAtMost nonzero")
	}
	if sm := s.Summarize(); sm != (Summary{}) {
		t.Fatalf("empty Summarize = %+v", sm)
	}
	pdf := s.PDF([]float64{1, 2})
	for _, v := range pdf {
		if v != 0 {
			t.Fatalf("empty PDF nonzero: %v", pdf)
		}
	}
}

func TestMeanMaxStdDev(t *testing.T) {
	s := sampleOf(1, 2, 3, 4)
	if s.Mean() != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Max() != 4 {
		t.Fatalf("Max = %v, want 4", s.Max())
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sampleOf(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	cases := []struct{ p, want float64 }{
		{0, 10}, {10, 10}, {50, 50}, {90, 90}, {91, 100}, {100, 100},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Fatalf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	var s Sample
	for _, tc := range []struct {
		f    func()
		want string // in the panic message
	}{
		{func() { s.Percentile(50) }, "empty"},
		{func() { sampleOf(1).Percentile(-1) }, "-1"},
		{func() { sampleOf(1).Percentile(101) }, "101"},
		{func() { sampleOf(1).Percentile(math.NaN()) }, "NaN"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			tc.f()
		}()
	}
}

func TestFractionAtMostInclusive(t *testing.T) {
	s := sampleOf(5, 5, 10)
	if got := s.FractionAtMost(5); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("FractionAtMost(5) = %v, want 2/3 (inclusive)", got)
	}
	if got := s.FractionAtMost(4.999); got != 0 {
		t.Fatalf("FractionAtMost(4.999) = %v, want 0", got)
	}
	if got := s.FractionAtMost(10); got != 1 {
		t.Fatalf("FractionAtMost(10) = %v, want 1", got)
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(rng.Float64() * 300)
	}
	cdf := s.ResponseCDF()
	if len(cdf) != len(ResponseBucketEdgesMs) {
		t.Fatalf("CDF length %d", len(cdf))
	}
	prev := 0.0
	for i, v := range cdf {
		if v < prev || v > 1 {
			t.Fatalf("CDF not monotone in [0,1]: %v", cdf)
		}
		prev = v
		_ = i
	}
}

func TestPDFSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(rng.Float64() * 15)
	}
	pdf := s.RotLatencyPDF()
	if len(pdf) != len(RotLatencyBucketEdgesMs)+1 {
		t.Fatalf("PDF length %d", len(pdf))
	}
	var sum float64
	for _, v := range pdf {
		if v < 0 {
			t.Fatalf("negative PDF mass: %v", pdf)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PDF sums to %v", sum)
	}
}

func TestPDFBucketsPartition(t *testing.T) {
	// One observation per bucket region: below 1, 1..3, ..., above 11.
	s := sampleOf(0.5, 2, 4, 6, 7.5, 8.5, 10, 12)
	pdf := s.PDF(RotLatencyBucketEdgesMs)
	for i, v := range pdf {
		if math.Abs(v-0.125) > 1e-12 {
			t.Fatalf("bucket %d mass %v, want 0.125 (pdf %v)", i, v, pdf)
		}
	}
}

func TestSummarizeAndString(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	sm := s.Summarize()
	if sm.Count != 10 || sm.P50 != 5 || sm.P90 != 9 || sm.Max != 10 {
		t.Fatalf("Summarize = %+v", sm)
	}
	if !strings.Contains(sm.String(), "p90=9.00") {
		t.Fatalf("String = %q", sm.String())
	}
}

func TestFormatCDFRow(t *testing.T) {
	s := sampleOf(3, 7, 300)
	row := FormatCDFRow(ResponseBucketEdgesMs, s.ResponseCDF())
	if !strings.Contains(row, "<=5:0.333") || !strings.Contains(row, "200+:0.333") {
		t.Fatalf("FormatCDFRow = %q", row)
	}
}

// Property: CDF is nondecreasing over any increasing edges, and
// FractionAtMost matches a brute-force count.
func TestPropertyCDFAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			s.Add(xs[i])
		}
		x := rng.Float64() * 100
		count := 0
		for _, v := range xs {
			if v <= x {
				count++
			}
		}
		want := float64(count) / float64(n)
		return math.Abs(s.FractionAtMost(x)-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile output is an element of the sample and is
// monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		n := 1 + rng.Intn(100)
		set := map[float64]bool{}
		for i := 0; i < n; i++ {
			v := rng.Float64() * 50
			s.Add(v)
			set[v] = true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if !set[v] || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// moments reads every mean-derived statistic of s as bits: Mean,
// StdDev, CI95 and Summarize's Mean and StdDev.
func moments(s *Sample) [6]uint64 {
	lo, hi := s.CI95()
	sm := s.Summarize()
	var m [6]uint64
	for i, x := range []float64{s.Mean(), s.StdDev(), lo, hi, sm.Mean, sm.StdDev} {
		m[i] = math.Float64bits(x)
	}
	return m
}

// Adding observations after a query must still work, and neither the
// query nor the Add reorders the sample. The moments after each Add
// match a fresh sample's: no query result outlives the values it read.
func TestInterleavedAddAndQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	if s.Percentile(50) != 10 || moments(&s) != moments(sampleOf(10)) {
		t.Fatalf("queries after first add")
	}
	s.Add(1)
	if s.Percentile(0) != 1 || s.FractionAtMost(1) != 0.5 {
		t.Fatalf("query after Add missed the new value")
	}
	if moments(&s) != moments(sampleOf(10, 1)) {
		t.Fatalf("moments after Add missed the new value")
	}
	s.Add(5)
	if sm := s.Summarize(); sm.P50 != 5 || sm.Max != 10 {
		t.Fatalf("Summarize after Add = %+v", sm)
	}
	if moments(&s) != moments(sampleOf(10, 1, 5)) {
		t.Fatalf("moments after second Add missed the new value")
	}
	if !slices.Equal(s.xs, []float64{10, 1, 5}) {
		t.Fatalf("sample reordered: %v, want insertion order [10 1 5]", s.xs)
	}
}

// TestStatisticsIgnoreQueryOrder requires Mean, StdDev and CI95 to
// come out bit-identical whichever queries ran before them, in any
// order, and the sample's values to stay in insertion order: summing
// in a different order rounds differently.
func TestStatisticsIgnoreQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s, other Sample
	for i := 0; i < 5000; i++ {
		s.Add(math.Pow(10, rng.Float64()*8-3)) // wide range: order changes the sum
		other.Add(rng.ExpFloat64() * 12)
	}
	inserted := slices.Clone(s.xs)
	type moments struct{ mean, sd, lo, hi uint64 }
	read := func() moments {
		lo, hi := s.CI95()
		return moments{math.Float64bits(s.Mean()), math.Float64bits(s.StdDev()), math.Float64bits(lo), math.Float64bits(hi)}
	}
	want := read()
	if sm := s.Summarize(); math.Float64bits(sm.Mean) != want.mean || math.Float64bits(sm.StdDev) != want.sd {
		t.Fatalf("Summarize mean/sd differ from Mean/StdDev")
	}
	queries := []struct {
		name string
		f    func()
	}{
		{"Percentile", func() { _ = s.Percentile(90) }},
		{"CDF", func() { _ = s.ResponseCDF() }},
		{"PDF", func() { _ = s.RotLatencyPDF() }},
		{"Summarize", func() { _ = s.Summarize() }},
		{"KolmogorovDistance", func() { _ = KolmogorovDistance(&s, &other) }},
		{"Merge", func() { _ = Merge(&other, &s); (&Sample{}).Merge(&s) }},
	}
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		for _, q := range queries {
			q.f()
			if got := read(); got != want {
				t.Fatalf("round %d: after %s, mean/sd/CI bits %x, want %x", round, q.name, got, want)
			}
		}
	}
	if !slices.Equal(s.xs, inserted) {
		t.Fatalf("queries reordered the sample")
	}
	var fresh Sample
	for _, x := range append(slices.Clone(other.xs), inserted...) {
		fresh.Add(x)
	}
	if m := Merge(&other, &s); math.Float64bits(m.Mean()) != math.Float64bits(fresh.Mean()) {
		t.Fatalf("merged mean %v, want %v (the inputs' values in order)", m.Mean(), fresh.Mean())
	}
}

// benchSink keeps the benchmarks' results alive.
var benchSink float64

// BenchmarkPercentile times a percentile query on 100 000 values. The
// query reads the sample without reordering it, so every iteration
// answers from the same unsorted values.
func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64() * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Percentile(90)
	}
}

// BenchmarkSummarize times a summary of 30 000 response-like values:
// three percentile ranks resolved together, the mean, the standard
// deviation and the maximum.
func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	for i := 0; i < 30000; i++ {
		s.Add(rng.ExpFloat64() * 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Summarize().P90
	}
}

// BenchmarkResponseCDF times the paper's response-time CDF over 30 000
// response-like values, one counting pass; its one allocation is the
// result slice.
func BenchmarkResponseCDF(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	for i := 0; i < 30000; i++ {
		s.Add(rng.ExpFloat64() * 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.ResponseCDF()[0]
	}
}

func TestMerge(t *testing.T) {
	a := sampleOf(1, 2)
	b := sampleOf(3)
	m := Merge(a, nil, b)
	if m.Count() != 3 {
		t.Fatalf("merged count %d", m.Count())
	}
	if m.Percentile(100) != 3 || m.Percentile(0) != 1 {
		t.Fatalf("merged percentiles wrong")
	}
	// Merging must not disturb the inputs.
	if a.Count() != 2 || b.Count() != 1 {
		t.Fatalf("inputs mutated")
	}
	if Merge().Count() != 0 {
		t.Fatalf("empty merge nonzero")
	}
}

func TestSampleMergeMethod(t *testing.T) {
	a := sampleOf(1, 2)
	a.Merge(sampleOf(4, 3))
	if a.Count() != 4 {
		t.Fatalf("merged count %d, want 4", a.Count())
	}
	if a.Percentile(0) != 1 || a.Percentile(100) != 4 {
		t.Fatalf("merged percentiles wrong: %v", a.Summarize())
	}
	// nil and empty merges are no-ops.
	a.Merge(nil)
	a.Merge(&Sample{})
	if a.Count() != 4 {
		t.Fatalf("no-op merge changed count to %d", a.Count())
	}
	// The source must not be disturbed.
	b := sampleOf(9)
	a.Merge(b)
	if b.Count() != 1 || b.Percentile(50) != 9 {
		t.Fatalf("merge mutated its source")
	}
}

// A query after Merge sees the merged values, appended in order.
func TestQueryAfterMerge(t *testing.T) {
	a := sampleOf(5, 1)
	_ = a.Percentile(50)
	_ = moments(a)
	a.Merge(sampleOf(0))
	if a.Percentile(0) != 0 || a.FractionAtMost(0) != 1.0/3 {
		t.Fatalf("query after Merge missed the merged value: min %v", a.Percentile(0))
	}
	if moments(a) != moments(sampleOf(5, 1, 0)) {
		t.Fatalf("moments after Merge missed the merged value")
	}
	if !slices.Equal(a.xs, []float64{5, 1, 0}) {
		t.Fatalf("merged sample %v, want [5 1 0]", a.xs)
	}
}

func TestKolmogorovDistance(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		a, b []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, nil, 1},
		{[]float64{1, 2, 3}, []float64{3, 2, 1}, 0},
		{[]float64{1, 2}, []float64{3, 4}, 1},
		{[]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6}, 0.5},
		{[]float64{0}, []float64{math.Copysign(0, -1)}, 0},
		{[]float64{1, nan}, []float64{2}, nan},
		{[]float64{2}, []float64{nan, 1}, nan},
		{nil, []float64{nan}, nan},
	} {
		a, b := sampleOf(tc.a...), sampleOf(tc.b...)
		got := make(chan float64, 1)
		go func() { got <- KolmogorovDistance(a, b) }()
		select {
		case d := <-got:
			if d != tc.want && !(math.IsNaN(d) && math.IsNaN(tc.want)) {
				t.Errorf("KolmogorovDistance(%v, %v) = %v, want %v", tc.a, tc.b, d, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("KolmogorovDistance(%v, %v) did not return", tc.a, tc.b)
		}
		if !sameBits(a.xs, tc.a) || !sameBits(b.xs, tc.b) {
			t.Errorf("KolmogorovDistance reordered its inputs %v, %v", tc.a, tc.b)
		}
	}
}

func TestCI95(t *testing.T) {
	if lo, hi := (&Sample{}).CI95(); lo != 0 || hi != 0 {
		t.Fatalf("empty CI95 = [%v, %v], want [0, 0]", lo, hi)
	}
	if lo, hi := sampleOf(7).CI95(); lo != 7 || hi != 7 {
		t.Fatalf("single-observation CI95 = [%v, %v], want degenerate [7, 7]", lo, hi)
	}
	s := sampleOf(2, 4, 6, 8)
	lo, hi := s.CI95()
	want := 1.96 * s.StdDev() / 2 // sqrt(n) = 2
	if math.Abs((hi-lo)/2-want) > 1e-12 {
		t.Fatalf("half-width %v, want %v", (hi-lo)/2, want)
	}
	if math.Abs((hi+lo)/2-s.Mean()) > 1e-12 {
		t.Fatalf("CI center %v, want mean %v", (hi+lo)/2, s.Mean())
	}
}

// TestAddGrowsByDoubling bounds the allocations of a large sample: Add
// doubles the slice from 8, so 100 000 values take 15 growths (the
// last to 131 072). Growing through append, whose steps past 256
// elements are about 1.25x, takes 28.
func TestAddGrowsByDoubling(t *testing.T) {
	const n = 100_000
	fill := func(s *Sample) {
		for i := 0; i < n; i++ {
			s.Add(float64(n - i))
		}
	}
	var s Sample
	allocs := testing.AllocsPerRun(5, func() {
		s = Sample{}
		fill(&s)
	})
	if allocs > 16 {
		t.Fatalf("adding %d values allocated %v times, want at most 16", n, allocs)
	}
	if s.Count() != n || s.Percentile(0) != 1 || s.Max() != n {
		t.Fatalf("sample holds %d values, min %v, max %v", s.Count(), s.Percentile(0), s.Max())
	}
}

// TestGrowAllocatesOnce checks that Grow(n) followed by n Adds makes
// one allocation, where Add alone doubles its way up (15 growths for
// 100 000 values), and that Grow keeps what the sample already holds.
func TestGrowAllocatesOnce(t *testing.T) {
	const n = 100_000
	var s Sample
	allocs := testing.AllocsPerRun(5, func() {
		s = Sample{}
		s.Grow(n)
		for i := 0; i < n; i++ {
			s.Add(float64(n - i))
		}
	})
	if allocs != 1 {
		t.Fatalf("Grow(%d) and %d Adds allocated %v times, want 1", n, n, allocs)
	}
	if s.Count() != n || s.Percentile(0) != 1 || s.Max() != n {
		t.Fatalf("sample holds %d values, min %v, max %v", s.Count(), s.Percentile(0), s.Max())
	}

	var g Sample
	g.Add(3)
	g.Add(1)
	g.Grow(0)
	g.Grow(-1)
	g.Grow(50)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 50; i++ {
			g.Add(2)
		}
		g.xs = g.xs[:2]
	}); allocs != 0 {
		t.Fatalf("50 Adds after Grow(50) allocated %v times, want 0", allocs)
	}
	if g.Count() != 2 || g.Max() != 3 || g.Percentile(0) != 1 {
		t.Fatalf("Grow lost observations: %v", g.xs)
	}
}
