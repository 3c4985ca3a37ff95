package trace_test

// Tests that need a fixed list of requests replay it through tracetest,
// which imports trace and so serves only the external test package.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

func analyze(t *testing.T, reqs []trace.Request) trace.Stats {
	t.Helper()
	s, err := trace.AnalyzeStream(tracetest.Stream(reqs))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTraceStatistics(t *testing.T) {
	s := analyze(t, []trace.Request{
		{ArrivalMs: 0, Sectors: 1, Read: true},
		{ArrivalMs: 10, Sectors: 1, Read: false},
		{ArrivalMs: 20, Sectors: 1, Read: true},
	})
	if s.DurationMs != 20 {
		t.Fatalf("DurationMs = %v, want 20", s.DurationMs)
	}
	if s.MeanInterArrivalMs != 10 {
		t.Fatalf("MeanInterArrivalMs = %v, want 10", s.MeanInterArrivalMs)
	}
	if math.Abs(s.ReadFraction-2.0/3) > 1e-12 {
		t.Fatalf("ReadFraction = %v, want 2/3", s.ReadFraction)
	}
}

// TestMaxDisk checks that Disks counts up to the highest disk
// referenced, not the distinct disks seen.
func TestMaxDisk(t *testing.T) {
	s := analyze(t, []trace.Request{{Disk: 2, Sectors: 1}, {Disk: 7, Sectors: 1}, {Disk: 1, Sectors: 1}})
	if s.Disks != 8 {
		t.Fatalf("Disks = %d, want 8", s.Disks)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := analyze(t, nil)
	if s != (trace.Stats{}) {
		t.Fatalf("empty stats %+v", s)
	}
}

func TestAnalyzeBasics(t *testing.T) {
	s := analyze(t, []trace.Request{
		{ArrivalMs: 0, Disk: 0, LBA: 0, Sectors: 8, Read: true},
		{ArrivalMs: 10, Disk: 0, LBA: 8, Sectors: 8, Read: true}, // sequential
		{ArrivalMs: 20, Disk: 1, LBA: 100, Sectors: 16, Read: false},
		{ArrivalMs: 30, Disk: 1, LBA: 500, Sectors: 32, Read: true},
	})
	if s.Requests != 4 || s.Disks != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.MeanInterArrivalMs != 10 {
		t.Fatalf("mean inter-arrival %v", s.MeanInterArrivalMs)
	}
	if math.Abs(s.ReadFraction-0.75) > 1e-12 {
		t.Fatalf("read fraction %v", s.ReadFraction)
	}
	if s.MeanSizeSectors != 16 || s.MaxSizeSectors != 32 {
		t.Fatalf("sizes %v/%d", s.MeanSizeSectors, s.MaxSizeSectors)
	}
	if math.Abs(s.SeqFraction-0.25) > 1e-12 {
		t.Fatalf("seq fraction %v", s.SeqFraction)
	}
	if s.FootprintSectors != 532 {
		t.Fatalf("footprint %d", s.FootprintSectors)
	}
	// Perfectly regular arrivals: CV^2 near zero. Balanced disks: CV 0.
	if s.CV2InterArrival > 1e-9 {
		t.Fatalf("CV2 %v for deterministic arrivals", s.CV2InterArrival)
	}
	if s.DiskLoadCV > 1e-9 {
		t.Fatalf("disk load CV %v for balanced trace", s.DiskLoadCV)
	}
}

// TestAnalyzeStreamMatchesAnalyze pins the analyzer to the request
// sequence alone: for every workload, a generator's stream and a list
// of the same requests analyze to identical Stats.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for _, spec := range trace.Workloads() {
		spec := spec.WithRequests(20000)
		g, err := trace.NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := tracetest.Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		if g, err = trace.NewGenerator(spec, 3); err != nil {
			t.Fatal(err)
		}
		got, err := trace.AnalyzeStream(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := analyze(t, reqs); got != want {
			t.Errorf("%s: AnalyzeStream(generator) = %+v, over the list = %+v", spec.Name, got, want)
		}
	}
}

// BenchmarkAnalyzeStream profiles a list of 100 000 Financial requests
// in one pass, as traceinfo profiles a trace file once the reader has
// parsed it: one op is the whole stream, and ns/req is the analyzer's
// cost per request. Its allocations are the profiler's maps, which grow
// with the distinct sizes, disks and gap buckets and not with length.
func BenchmarkAnalyzeStream(b *testing.B) {
	const n = 100000
	g, err := trace.NewGenerator(trace.Financial().WithRequests(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := tracetest.Collect(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := trace.AnalyzeStream(tracetest.Stream(reqs))
		if err != nil || st.Requests != n {
			b.Fatalf("analyzed %d of %d requests: %v", st.Requests, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
}

func TestRemapConcatenatesDisks(t *testing.T) {
	out, err := tracetest.Collect(trace.RemapStream(tracetest.Stream([]trace.Request{
		{ArrivalMs: 0, Disk: 0, LBA: 5, Sectors: 1},
		{ArrivalMs: 1, Disk: 1, LBA: 5, Sectors: 1},
		{ArrivalMs: 2, Disk: 2, LBA: 5, Sectors: 1},
	}), []int64{0, 1000, 2000}))
	if err != nil {
		t.Fatalf("RemapStream: %v", err)
	}
	want := []int64{5, 1005, 2005}
	if len(out) != len(want) {
		t.Fatalf("remapped %d requests, want %d", len(out), len(want))
	}
	for i, r := range out {
		if r.Disk != 0 {
			t.Fatalf("request %d still targets disk %d", i, r.Disk)
		}
		if r.LBA != want[i] {
			t.Fatalf("request %d LBA %d, want %d", i, r.LBA, want[i])
		}
	}
}

func TestRemapRejectsMissingOffsets(t *testing.T) {
	s := trace.RemapStream(tracetest.Stream([]trace.Request{{Disk: 3, Sectors: 1}}), []int64{0, 10})
	if out, err := tracetest.Collect(s); err == nil || len(out) != 0 {
		t.Fatalf("RemapStream accepted out-of-range disk: %+v, %v", out, err)
	}
}

// TestRemapStreamErrorsOnUnroutableDisk: a request beyond the offset
// table must end the stream with an error rather than panic — foreign
// traces reach this boundary. Regression test for the
// ingestion-hardening fix.
func TestRemapStreamErrorsOnUnroutableDisk(t *testing.T) {
	s := trace.RemapStream(tracetest.Stream([]trace.Request{
		{ArrivalMs: 0, Disk: 1, LBA: 5, Sectors: 1},
		{ArrivalMs: 1, Disk: 3, LBA: 0, Sectors: 1},
		{ArrivalMs: 2, Disk: 0, LBA: 0, Sectors: 1},
	}), []int64{0, 100})
	r, ok := s.Next()
	if !ok || r.LBA != 105 || r.Disk != 0 {
		t.Fatalf("first request = %+v, %v; want remapped LBA 105 on disk 0", r, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("RemapStream accepted a request beyond the offset table")
	}
	err := trace.Err(s)
	if err == nil {
		t.Fatal("Err = nil after unroutable request")
	}
	if !strings.Contains(err.Error(), "disk 3") || !strings.Contains(err.Error(), "2 offsets") {
		t.Fatalf("Err = %v; want it to name disk 3 and the 2-entry offset table", err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream yielded requests after its terminal error")
	}
}

// TestBoundStream checks that BoundStream passes fitting requests
// through and ends the stream at the first request whose disk or
// extent does not fit, with an error naming the request and field.
func TestBoundStream(t *testing.T) {
	for _, c := range []struct {
		bad   trace.Request
		wants []string
	}{
		{trace.Request{Disk: 2, LBA: 0, Sectors: 1}, []string{"request 2", "Disk 2", "2-disk"}},
		{trace.Request{Disk: 1, LBA: 99, Sectors: 2}, []string{"request 2", "LBA 99", "Sectors 2", "100 sectors"}},
		// LBA + Sectors wraps past MaxInt64: the bound must not compare
		// the wrapped end.
		{trace.Request{Disk: 0, LBA: math.MaxInt64 - 4, Sectors: 16}, []string{"request 2", "LBA 9223372036854775803", "Sectors 16"}},
	} {
		s := trace.BoundStream(tracetest.Stream([]trace.Request{
			{Disk: 0, LBA: 0, Sectors: 100},
			{Disk: 1, LBA: 99, Sectors: 1},
			c.bad,
			{Disk: 0, LBA: 0, Sectors: 1},
		}), 2, 100)
		for i := 0; i < 2; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("fitting request %d rejected: %v", i, trace.Err(s))
			}
		}
		if r, ok := s.Next(); ok {
			t.Fatalf("BoundStream accepted %+v", r)
		}
		err := trace.Err(s)
		for _, w := range c.wants {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("Err = %v; want it to name %q", err, w)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatal("stream yielded requests after its terminal error")
		}
	}
}

// roundTrip writes reqs in the native format and reads them back.
func roundTrip(reqs []trace.Request) ([]trace.Request, error) {
	var buf bytes.Buffer
	if _, err := trace.WriteStream(&buf, tracetest.Stream(reqs)); err != nil {
		return nil, err
	}
	return tracetest.Collect(trace.NewNativeReader(&buf, trace.ReaderOpts{}))
}

func TestWriteReadRoundTrip(t *testing.T) {
	reqs := []trace.Request{
		{ArrivalMs: 0.5, Disk: 0, LBA: 100, Sectors: 8, Read: true},
		{ArrivalMs: 1.25, Disk: 3, LBA: 999999, Sectors: 64, Read: false},
	}
	back, err := roundTrip(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reqs, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, reqs)
	}
}

// TestWriteStreamMatchesSprintf pins WriteStream's strconv-built lines
// to the bytes of fmt.Sprintf("%.6f %d %d %d %s\n", ...), on random
// values and on 0, -0, 1e21, NaN and the infinities.
func TestWriteStreamMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arrivals := []float64{0, math.Copysign(0, -1), 1e21, -1e21, math.NaN(), math.Inf(1), math.Inf(-1),
		0.0000005, 0.0000015, 1.0000005, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 2000; i++ {
		arrivals = append(arrivals, rng.Float64()*math.Pow(10, float64(rng.Intn(30)-8)), -rng.ExpFloat64())
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	pick := func() int64 {
		if rng.Intn(4) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63n(1<<40) - 1<<20
	}
	var reqs []trace.Request
	var want strings.Builder
	for i, a := range arrivals {
		r := trace.Request{ArrivalMs: a, Disk: int(pick()), LBA: pick(), Sectors: int(pick()), Read: i%3 == 0}
		op := "W"
		if r.Read {
			op = "R"
		}
		want.WriteString(fmt.Sprintf("%.6f %d %d %d %s\n", r.ArrivalMs, r.Disk, r.LBA, r.Sectors, op))
		reqs = append(reqs, r)
	}
	var got bytes.Buffer
	n, err := trace.WriteStream(&got, tracetest.Stream(reqs))
	if err != nil || n != len(reqs) {
		t.Fatalf("WriteStream = %d, %v; want %d, nil", n, err, len(reqs))
	}
	gotLines, wantLines := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(want.String(), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, gotLines[min(i, len(gotLines)-1)], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}

// Property: any generated request list round-trips through the text
// format.
func TestPropertyFormatRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]trace.Request, 1+rng.Intn(50))
		now := 0.0
		for i := range reqs {
			now += rng.Float64() * 10
			reqs[i] = trace.Request{
				ArrivalMs: math.Round(now*1e6) / 1e6, // format precision
				Disk:      rng.Intn(8),
				LBA:       rng.Int63n(1 << 40),
				Sectors:   1 + rng.Intn(256),
				Read:      rng.Intn(2) == 0,
			}
		}
		back, err := roundTrip(reqs)
		return err == nil && reflect.DeepEqual(reqs, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
