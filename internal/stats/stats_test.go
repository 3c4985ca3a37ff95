package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
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
	for _, f := range []func(){
		func() { s.Percentile(50) },
		func() { sampleOf(1).Percentile(-1) },
		func() { sampleOf(1).Percentile(101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
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

// Adding observations after a sorted read must still work.
func TestInterleavedAddAndQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	if s.Percentile(50) != 10 {
		t.Fatalf("Percentile after first add")
	}
	s.Add(1)
	if s.Percentile(0) != 1 {
		t.Fatalf("sample not re-sorted after Add")
	}
	if !sort.Float64sAreSorted(s.xs) {
		t.Fatalf("internal state unsorted after query")
	}
}

// BenchmarkPercentile times a percentile query on a freshly filled
// sample, which is dominated by the sort: each iteration restores the
// same 100 000 unsorted values, outside the timer.
func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
		s.Add(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(s.xs, vals)
		s.sorted = false
		b.StartTimer()
		_ = s.Percentile(90)
	}
}

func TestRenderHistogram(t *testing.T) {
	s := sampleOf(0.5, 2, 2, 4, 12)
	var buf strings.Builder
	if err := RenderHistogram(&buf, s, RotLatencyBucketEdgesMs, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<=1") || !strings.Contains(out, "11+") {
		t.Fatalf("histogram output missing labels:\n%s", out)
	}
	// The modal bucket (<=3, mass 0.4) gets the full-width bar.
	if !strings.Contains(out, strings.Repeat("#", 20)) {
		t.Fatalf("no full-width bar:\n%s", out)
	}
	if err := RenderHistogram(&buf, s, RotLatencyBucketEdgesMs, 0); err == nil {
		t.Fatalf("zero width accepted")
	}
	if err := RenderHistogram(&buf, s, nil, 10); err == nil {
		t.Fatalf("empty edges accepted")
	}
	if err := RenderHistogram(&buf, s, []float64{3, 1}, 10); err == nil {
		t.Fatalf("non-increasing edges accepted")
	}
}

func TestRenderCDF(t *testing.T) {
	s := sampleOf(1, 6, 30, 300)
	var buf strings.Builder
	if err := RenderCDF(&buf, s, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<=200") {
		t.Fatalf("CDF output missing buckets:\n%s", buf.String())
	}
	if err := RenderCDF(&buf, s, -1); err == nil {
		t.Fatalf("negative width accepted")
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

func TestSampleMergeInvalidatesSortCache(t *testing.T) {
	a := sampleOf(5, 1)
	_ = a.Percentile(50) // forces a sort
	a.Merge(sampleOf(0))
	if a.Percentile(0) != 0 {
		t.Fatalf("stale sort cache after Merge: min %v", a.Percentile(0))
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
