package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// secMs converts a seconds timestamp string to milliseconds through the
// same runtime float operations the parsers perform, so expected
// arrivals match to the last bit (Go constant folding is exact-rational
// and would differ).
func secMs(t *testing.T, ts string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v * 1000
}

// drain pulls every request from a stream, returning them with the
// terminal error.
func drain(s Stream) ([]Request, error) {
	var out []Request
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		out = append(out, r)
	}
	return out, Err(s)
}

func TestSPCReaderCorpus(t *testing.T) {
	in := strings.Join([]string{
		"ASU,LBA,Size,Opcode,Timestamp", // header row
		"",                              // blank
		"# a comment",
		"0,1024,4096,r,1.5",
		"1,2048,6000,W,1.5021\r", // CRLF + non-sector-multiple size
		"0,4096,512,R,1.630,extra,columns,ignored",
	}, "\n")
	rd := NewSPCReader(strings.NewReader(in), ReaderOpts{})
	if rd.Format() != FormatSPC {
		t.Fatalf("Format = %q", rd.Format())
	}
	got, err := drain(rd)
	if err != nil {
		t.Fatal(err)
	}
	base := secMs(t, "1.5")
	want := []Request{
		{ArrivalMs: 0, Disk: 0, LBA: 1024, Sectors: 8, Read: true}, // rebased to 0
		// 6000 B -> ceil 12 sectors
		{ArrivalMs: secMs(t, "1.5021") - base, Disk: 1, LBA: 2048, Sectors: 12, Read: false},
		{ArrivalMs: secMs(t, "1.630") - base, Disk: 0, LBA: 4096, Sectors: 1, Read: true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMSRReaderCorpus(t *testing.T) {
	in := strings.Join([]string{
		"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
		"128166372003000000,srv0,0,Read,1024,4096,500",
		"128166372003050000,srv0,1,write,1536,512,400\r", // case-insensitive type, CRLF
		// Unaligned offset: bytes [100, 612) span sectors 0 and 1.
		"128166372003100000,srv0,0,Read,100,512,300",
	}, "\n")
	got, err := drain(NewMSRReader(strings.NewReader(in), ReaderOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{
		{ArrivalMs: 0, Disk: 0, LBA: 2, Sectors: 8, Read: true},
		{ArrivalMs: 5, Disk: 1, LBA: 3, Sectors: 1, Read: false}, // 5e4 ticks = 5 ms
		{ArrivalMs: 10, Disk: 0, LBA: 0, Sectors: 2, Read: true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBlkparseReaderCorpus(t *testing.T) {
	in := strings.Join([]string{
		"8,0 1 1 0.000000000 501 Q R 1000 + 8 [fio]",
		"8,0 1 2 0.000001000 501 G R 1000 + 8 [fio]",   // non-Q lifecycle: skipped
		"8,0 1 3 0.000500000 501 C R 1000 + 8 [0]",     // completion: skipped
		"8,16 2 1 0.002000000 502 Q WS 2000 + 16 [db]", // second device -> disk 1
		"8,0 1 4 0.003000000 501 Q D 3000 + 8 [fio]",   // discard: skipped
		"8,0 1 5 0.004000000 501 Q FN 0 + 0 [db]",      // flush, no data: skipped
		"8,0 1 6 0.005000000 501 Q RA 4000 + 0 [fio]",  // zero-length: skipped
		"8,0 1 7 0.006000000 501 Q RM 5000 + 32 [fio]",
		"CPU1 (8,0):", // trailing summary section
		" Reads Queued:         120,      3MiB",
	}, "\n")
	got, err := drain(NewBlkparseReader(strings.NewReader(in), ReaderOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{
		{ArrivalMs: 0, Disk: 0, LBA: 1000, Sectors: 8, Read: true},
		{ArrivalMs: secMs(t, "0.002000000"), Disk: 1, LBA: 2000, Sectors: 16, Read: false},
		{ArrivalMs: secMs(t, "0.006000000"), Disk: 0, LBA: 5000, Sectors: 32, Read: true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReaderMalformedLines checks that every parser rejects a malformed
// data line with its line number in the error.
func TestReaderMalformedLines(t *testing.T) {
	cases := []struct {
		name string
		rd   *Reader
	}{
		{"native-fields", NewNativeReader(strings.NewReader("0.0 0 0 8 R\n0.1 0 0 8\n"), ReaderOpts{})},
		{"native-op", NewNativeReader(strings.NewReader("0.0 0 0 8 R\n0.1 0 0 8 X\n"), ReaderOpts{})},
		{"native-negative-lba", NewNativeReader(strings.NewReader("0.0 0 0 8 R\n0.1 0 -5 8 R\n"), ReaderOpts{})},
		{"spc-opcode", NewSPCReader(strings.NewReader("0,0,4096,r,0.0\n0,0,4096,x,0.1\n"), ReaderOpts{})},
		{"spc-size", NewSPCReader(strings.NewReader("0,0,4096,r,0.0\n0,0,-1,r,0.1\n"), ReaderOpts{})},
		{"msr-fields", NewMSRReader(strings.NewReader("100,h,0,Read,0,512,1\n101,h,0,Read\n"), ReaderOpts{})},
		{"msr-type", NewMSRReader(strings.NewReader("100,h,0,Read,0,512,1\n101,h,0,Trim,0,512,1\n"), ReaderOpts{})},
		{"blkparse-count", NewBlkparseReader(strings.NewReader("8,0 1 1 0.0 9 Q R 10 + 8 [a]\n8,0 1 2 0.1 9 Q R 10 + x [a]\n"), ReaderOpts{})},
		// Values int64 arithmetic would wrap: an extent whose end passes
		// MaxInt64 (wrapped, it slips under every capacity check and a
		// drive panics), and a negative MSR tick (subtracting the first
		// tick wraps, so a record ~1.8e19 ticks earlier reads as 0.1 us
		// later).
		{"native-extent-overflow", NewNativeReader(strings.NewReader("0.5 0 100 8 R\n0.5 0 9223372036854775800 16 R\n"), ReaderOpts{})},
		{"spc-extent-overflow", NewSPCReader(strings.NewReader("0,0,4096,r,0.5\n0,9223372036854775807,512,r,0.6\n"), ReaderOpts{})},
		{"blkparse-extent-overflow", NewBlkparseReader(strings.NewReader("8,0 1 1 0.5 9 Q R 0 + 8 [a]\n8,0 1 2 0.6 9 Q R 9223372036854775806 + 8 [a]\n"), ReaderOpts{})},
		{"msr-negative-tick", NewMSRReader(strings.NewReader("9223372036854775807,h,0,Read,0,512,1\n-9223372036854775808,h,0,Read,512,512,1\n"), ReaderOpts{})},
	}
	for _, c := range cases {
		got, err := drain(c.rd)
		if err == nil {
			t.Errorf("%s: no error (yielded %d requests)", c.name, len(got))
			continue
		}
		if len(got) != 1 {
			t.Errorf("%s: %d requests before the error, want 1", c.name, len(got))
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q lacks the line number", c.name, err)
		}
	}
}

// TestReaderRejectsNonFiniteArrivals checks that a NaN or infinite
// arrival, parsed or reached by unit conversion or rebasing, ends the
// stream with an error naming the format and the line. Unchecked, NaN
// also passes the ordering check (every comparison with NaN is false)
// and replays as NaN response times. MSR timestamps are integers and
// cannot be non-finite.
func TestReaderRejectsNonFiniteArrivals(t *testing.T) {
	cases := []struct {
		name, want string
		rd         *Reader
	}{
		{"native-nan", "trace: native: line 2: non-finite", NewNativeReader(strings.NewReader("0.5 0 100 8 R\nNaN 0 200 8 R\n1.0 0 300 8 W\n"), ReaderOpts{})},
		{"native-inf", "trace: native: line 2: non-finite", NewNativeReader(strings.NewReader("0.5 0 100 8 R\n+Inf 0 200 8 R\n"), ReaderOpts{})},
		{"spc-nan", "trace: spc: line 2: non-finite", NewSPCReader(strings.NewReader("0,0,4096,r,0.5\n0,8,4096,r,NaN\n"), ReaderOpts{})},
		{"spc-ms-overflow", "trace: spc: line 2: non-finite", NewSPCReader(strings.NewReader("0,0,4096,r,0.5\n0,8,4096,r,1e306\n"), ReaderOpts{})},
		{"spc-rebase-overflow", "trace: spc: line 2: arrival overflows", NewSPCReader(strings.NewReader("0,0,4096,r,-1.7e305\n0,8,4096,r,1.7e305\n"), ReaderOpts{})},
		{"blkparse-inf", "trace: blkparse: line 2: non-finite", NewBlkparseReader(strings.NewReader("8,0 1 1 0.5 9 Q R 0 + 8 [a]\n8,0 1 2 Inf 9 Q R 8 + 8 [a]\n"), ReaderOpts{})},
	}
	for _, c := range cases {
		got, err := drain(c.rd)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if len(got) != 1 {
			t.Errorf("%s: %d requests before the error, want 1", c.name, len(got))
		}
	}
}

func TestReaderEmptyInputs(t *testing.T) {
	for name, rd := range map[string]*Reader{
		"native":   NewNativeReader(strings.NewReader(""), ReaderOpts{}),
		"spc":      NewSPCReader(strings.NewReader("ASU,LBA,Size,Opcode,Timestamp\n"), ReaderOpts{}),
		"msr":      NewMSRReader(strings.NewReader("\n# only comments\n"), ReaderOpts{}),
		"blkparse": NewBlkparseReader(strings.NewReader("Total (8,0):\n"), ReaderOpts{}),
	} {
		got, err := drain(rd)
		if err != nil {
			t.Errorf("%s: err = %v", name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: yielded %d requests from empty input", name, len(got))
		}
	}
}

// TestReaderOutOfOrder pins the ingestion-boundary ordering bugfix: a
// trace whose arrivals regress is rejected with both line numbers, a
// small regression is absorbed by the reorder window, and a regression
// beyond the window still fails.
func TestReaderOutOfOrder(t *testing.T) {
	in := "0,100,4096,r,0.010\n0,200,4096,r,0.005\n0,300,4096,r,0.012\n"

	_, err := drain(NewSPCReader(strings.NewReader(in), ReaderOpts{}))
	if err == nil {
		t.Fatal("strict reader accepted out-of-order arrivals")
	}
	for _, frag := range []string{"line 2", "line 1", "ReorderWindow"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict error %q lacks %q", err, frag)
		}
	}

	got, err := drain(NewSPCReader(strings.NewReader(in), ReaderOpts{ReorderWindow: 1}))
	if err != nil {
		t.Fatalf("window-1 reader: %v", err)
	}
	wantLBA := []int64{200, 100, 300} // sorted by arrival: 5ms, 10ms, 12ms
	if len(got) != 3 {
		t.Fatalf("window-1 reader yielded %d requests", len(got))
	}
	for i, r := range got {
		if r.LBA != wantLBA[i] {
			t.Errorf("request %d LBA = %d, want %d", i, r.LBA, wantLBA[i])
		}
		if i > 0 && r.ArrivalMs < got[i-1].ArrivalMs {
			t.Errorf("request %d arrival %v regresses", i, r.ArrivalMs)
		}
	}
	if got[0].ArrivalMs != 0 {
		t.Errorf("first emitted arrival = %v, want rebased 0", got[0].ArrivalMs)
	}

	// A regression deeper than the window: 4 early requests, then one
	// 10 ms before all of them, window 2.
	deep := "0,1,4096,r,0.020\n0,2,4096,r,0.021\n0,3,4096,r,0.022\n0,4,4096,r,0.023\n0,5,4096,r,0.010\n"
	_, err = drain(NewSPCReader(strings.NewReader(deep), ReaderOpts{ReorderWindow: 2}))
	if err == nil || !strings.Contains(err.Error(), "reorder window") {
		t.Fatalf("window-2 reader on deep regression: err = %v", err)
	}
}

// TestNativeReaderEqualTies checks that equal-arrival requests keep
// file order through the reorder heap.
func TestNativeReaderEqualTies(t *testing.T) {
	in := "1.0 0 10 8 R\n1.0 0 20 8 R\n1.0 0 30 8 R\n"
	for _, w := range []int{0, 4} {
		got, err := drain(NewNativeReader(strings.NewReader(in), ReaderOpts{ReorderWindow: w}))
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for i, wantLBA := range []int64{10, 20, 30} {
			if got[i].LBA != wantLBA {
				t.Errorf("window %d: request %d LBA = %d, want %d", w, i, got[i].LBA, wantLBA)
			}
		}
	}
}

func TestSniff(t *testing.T) {
	cases := []struct {
		in   string
		want Format
	}{
		{"0.000000 0 1024 8 R\n", FormatNative},
		{"# comment\n\n12.5 3 99 16 W\n", FormatNative},
		{"ASU,LBA,Size,Opcode,Timestamp\n0,1024,4096,r,0.015\n", FormatSPC},
		{"0,1024,4096,r,0.015\n", FormatSPC}, // headerless SPC
		{"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n128166372003061629,hm,0,Read,383496192,32768,413\n", FormatMSR},
		{"128166372003061629,hm,0,Read,383496192,32768,413\n", FormatMSR},
		{"8,0 1 1 0.000000000 1234 Q R 1024 + 8 [fio]\n", FormatBlkparse},
		{"", FormatNative}, // no data at all: empty native trace
		{"# just comments\n", FormatNative},
	}
	for _, c := range cases {
		got, err := Sniff([]byte(c.in))
		if err != nil {
			t.Errorf("Sniff(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Sniff(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := Sniff([]byte("complete gibberish here\n")); err == nil {
		t.Error("Sniff accepted unparseable input")
	}
}

// TestFixtureRoundTrip pins each vendored fixture's conversion: opening
// the fixture (format sniffed) and writing the native text form must
// reproduce the committed golden byte for byte — the same contract the
// CI ingest-smoke step checks through the tracegen CLI.
func TestFixtureRoundTrip(t *testing.T) {
	cases := []struct {
		fixture, golden string
		format          Format
	}{
		{"sample.spc.csv", "sample.spc.golden.trc", FormatSPC},
		{"sample.msr.csv", "sample.msr.golden.trc", FormatMSR},
		{"sample.blkparse.txt", "sample.blkparse.golden.trc", FormatBlkparse},
	}
	for _, c := range cases {
		rd, err := OpenFile(filepath.Join("testdata", c.fixture), ReaderOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if rd.Format() != c.format {
			t.Errorf("%s: sniffed %q, want %q", c.fixture, rd.Format(), c.format)
		}
		var buf bytes.Buffer
		n, err := WriteStream(&buf, rd)
		rd.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.fixture, err)
		}
		if n == 0 {
			t.Fatalf("%s: no requests", c.fixture)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: conversion diverges from %s", c.fixture, c.golden)
		}

		// The golden itself must round-trip through the native reader.
		tr, err := drain(NewNativeReader(bytes.NewReader(want), ReaderOpts{}))
		if err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		if len(tr) != n {
			t.Errorf("%s: native re-read %d requests, want %d", c.golden, len(tr), n)
		}
	}
}

func TestGapPercentileApproximation(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 1001; i++ {
		p.Add(Request{ArrivalMs: float64(i) * 2.0, Disk: 0, LBA: int64(i), Sectors: 8})
	}
	prof := p.Finish()
	for _, pct := range []float64{50, 90, 99} {
		v, err := prof.GapPercentile(pct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-2.0) > 2.0*0.1 {
			t.Errorf("p%v = %v, want ~2.0 (within histogram resolution)", pct, v)
		}
	}
	if _, err := prof.GapPercentile(101); err == nil {
		t.Error("GapPercentile accepted 101")
	}
}

// TestFitWorkloadSanity checks the fit on a stream with known shape:
// the fitted spec must validate, reproduce the profile's scale, and a
// generator built from it must match the profiled statistics closely.
func TestFitWorkloadSanity(t *testing.T) {
	spec := TPCC().WithRequests(30000)
	g, err := NewGenerator(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileStream(g)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitWorkload("refit", prof)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Requests != prof.Requests || fit.Disks != prof.Disks {
		t.Fatalf("fit scale %d/%d, want %d/%d", fit.Requests, fit.Disks, prof.Requests, prof.Disks)
	}
	g2, err := NewGenerator(fit, 12)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := AnalyzeStream(g2)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want, relTol float64) {
		if want == 0 {
			return
		}
		if math.Abs(got-want)/math.Abs(want) > relTol {
			t.Errorf("%s: fitted %v vs profiled %v (tol %v)", name, got, want, relTol)
		}
	}
	near("mean inter-arrival", synth.MeanInterArrivalMs, prof.MeanInterArrivalMs, 0.10)
	near("CV^2", synth.CV2InterArrival, prof.CV2InterArrival, 0.35)
	near("read fraction", synth.ReadFraction, prof.ReadFraction, 0.05)
	near("mean size", synth.MeanSizeSectors, prof.MeanSizeSectors, 0.15)
}

// TestReaderAllocsConstant is the O(1)-memory check in test form: the
// per-request allocation count must not grow with trace length.
func TestReaderAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting")
	}
	perRequest := func(n int) float64 {
		var input string
		{
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "%d,%d,4096,r,%d.%03d\n", i%3, i*8, i/1000, i%1000)
			}
			input = b.String()
		}
		allocs := testing.AllocsPerRun(5, func() {
			rd := NewSPCReader(strings.NewReader(input), ReaderOpts{})
			if _, err := drain(rd); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perRequest(1000), perRequest(8000)
	// Fixed setup costs amortize away; per-request allocations must be
	// flat (drain's slice growth only: scanning allocates nothing).
	if large > small*1.5+1 {
		t.Errorf("allocs per request grew with length: %.2f at 1k vs %.2f at 8k", small, large)
	}
}

// TestReaderNextAllocatesNothing pins the zero-copy scan: once the
// scanner buffer is warm, Next allocates nothing per record in any
// format.
func TestReaderNextAllocatesNothing(t *testing.T) {
	cases := []struct {
		name string
		line func(i int) string
		open func(r io.Reader) *Reader
	}{
		{"native", func(i int) string { return fmt.Sprintf("%d.%03d 0 %d 8 R\n", i/1000, i%1000, i*8) },
			func(r io.Reader) *Reader { return NewNativeReader(r, ReaderOpts{}) }},
		{"spc", func(i int) string { return fmt.Sprintf("%d,%d,4096,r,%d.%03d\n", i%3, i*8, i/1000, i%1000) },
			func(r io.Reader) *Reader { return NewSPCReader(r, ReaderOpts{}) }},
		{"msr", func(i int) string {
			return fmt.Sprintf("%d,srv0,0,Read,%d,4096,500\n", 128166372003000000+int64(i)*10000, i*4096)
		}, func(r io.Reader) *Reader { return NewMSRReader(r, ReaderOpts{}) }},
		{"blkparse", func(i int) string {
			return fmt.Sprintf("8,0 1 %d %d.%09d 42 Q R %d + 8 [fio]\n", i, i/1000, (i%1000)*1000000, i*8)
		}, func(r io.Reader) *Reader { return NewBlkparseReader(r, ReaderOpts{}) }},
	}
	for _, c := range cases {
		var sb strings.Builder
		for i := 0; i < 20000; i++ {
			sb.WriteString(c.line(i))
		}
		rd := c.open(strings.NewReader(sb.String()))
		for i := 0; i < 100; i++ { // warm the scanner buffer and parser state
			rd.Next()
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, ok := rd.Next(); !ok {
				t.Fatalf("%s: stream ended early: %v", c.name, rd.Err())
			}
		}); n != 0 {
			t.Errorf("%s: Next allocated %v times per record, want 0", c.name, n)
		}
	}
}

// TestBlkparseDeviceNamesSurviveBufferReuse checks that the device map
// owns its keys: a device first seen early in a trace must still map to
// its index after the scanner has refilled (and overwritten) the buffer
// the line was read from.
func TestBlkparseDeviceNamesSurviveBufferReuse(t *testing.T) {
	var sb strings.Builder
	devs := []string{"8,0", "8,16"}
	const n = 8000 // ~400 KB: many scanner refills
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%s 1 %d %d.%06d 42 Q R %d + 8 [fio]\n", devs[i%2], i, i/1000, (i%1000)*1000, i*8)
	}
	got, err := drain(NewBlkparseReader(strings.NewReader(sb.String()), ReaderOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d requests, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Disk != i%2 {
			t.Fatalf("request %d (device %s) mapped to disk %d, want %d", i, devs[i%2], r.Disk, i%2)
		}
	}
}

// Per-format steady-state ingestion benchmarks. ReportAllocs makes the
// O(1)-memory claim measurable: allocs/op is per-request and does not
// depend on how many requests precede it.
func benchmarkReader(b *testing.B, line func(i int) string, open func(r *strings.Reader) *Reader) {
	var sb strings.Builder
	const lines = 200000
	for i := 0; i < lines; i++ {
		sb.WriteString(line(i))
	}
	input := sb.String()
	sr := strings.NewReader(input)
	rd := open(sr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rd.Next(); !ok {
			if err := rd.Err(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sr.Reset(input)
			rd = open(sr)
			b.StartTimer()
		}
	}
}

func BenchmarkNativeReader(b *testing.B) {
	benchmarkReader(b,
		func(i int) string { return fmt.Sprintf("%d.%03d 0 %d 8 R\n", i/1000, i%1000, i*8) },
		func(r *strings.Reader) *Reader { return NewNativeReader(r, ReaderOpts{}) })
}

func BenchmarkSPCReader(b *testing.B) {
	benchmarkReader(b,
		func(i int) string { return fmt.Sprintf("%d,%d,4096,r,%d.%03d\n", i%3, i*8, i/1000, i%1000) },
		func(r *strings.Reader) *Reader { return NewSPCReader(r, ReaderOpts{}) })
}

func BenchmarkMSRReader(b *testing.B) {
	benchmarkReader(b,
		func(i int) string {
			return fmt.Sprintf("%d,srv0,0,Read,%d,4096,500\n", 128166372003000000+int64(i)*10000, i*4096)
		},
		func(r *strings.Reader) *Reader { return NewMSRReader(r, ReaderOpts{}) })
}

func BenchmarkBlkparseReader(b *testing.B) {
	benchmarkReader(b,
		func(i int) string {
			return fmt.Sprintf("8,0 1 %d %d.%09d 42 Q R %d + 8 [fio]\n", i, i/1000, (i%1000)*1000000, i*8)
		},
		func(r *strings.Reader) *Reader { return NewBlkparseReader(r, ReaderOpts{}) })
}
