package trace

import (
	"strings"
	"testing"
)

// TestGeneratorMatchesGenerate pins the streaming contract: for every
// workload spec and several seeds, the Generator yields exactly the
// sequence Generate materializes.
func TestGeneratorMatchesGenerate(t *testing.T) {
	for _, spec := range Workloads() {
		spec := spec.WithRequests(5000)
		for seed := int64(1); seed <= 3; seed++ {
			want, err := Generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.Remaining() != spec.Requests {
				t.Fatalf("%s: Remaining = %d before streaming, want %d",
					spec.Name, g.Remaining(), spec.Requests)
			}
			for i := 0; ; i++ {
				r, ok := g.Next()
				if !ok {
					if i != len(want) {
						t.Fatalf("%s seed %d: stream ended at %d, want %d",
							spec.Name, seed, i, len(want))
					}
					break
				}
				if i >= len(want) {
					t.Fatalf("%s seed %d: stream overran %d requests", spec.Name, seed, len(want))
				}
				if r != want[i] {
					t.Fatalf("%s seed %d: request %d = %+v, want %+v",
						spec.Name, seed, i, r, want[i])
				}
			}
			if g.Remaining() != 0 {
				t.Fatalf("%s: Remaining = %d after exhaustion", spec.Name, g.Remaining())
			}
			if _, ok := g.Next(); ok {
				t.Fatalf("%s: Next yielded past exhaustion", spec.Name)
			}
		}
	}
}

// TestRemapStreamMatchesRemap checks the streaming migration against the
// materialized Trace.Remap for the same offsets.
func TestRemapStreamMatchesRemap(t *testing.T) {
	spec := Financial().WithRequests(2000)
	tr, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, spec.Disks)
	for i := range offsets {
		offsets[i] = int64(i) * 1 << 25
	}
	want, err := tr.Remap(offsets)
	if err != nil {
		t.Fatal(err)
	}
	s := RemapStream(tr.Stream(), offsets)
	for i := 0; ; i++ {
		r, ok := s.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("stream ended at %d, want %d", i, len(want))
			}
			break
		}
		if r != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestRemapStreamErrorsOnUnroutableDisk mirrors Trace.Remap's error on
// a request beyond the offset table: the stream must end with an error
// rather than panic — foreign traces reach this boundary. Regression
// test for the ingestion-hardening fix.
func TestRemapStreamErrorsOnUnroutableDisk(t *testing.T) {
	s := RemapStream(Trace{
		{ArrivalMs: 0, Disk: 1, LBA: 5, Sectors: 1},
		{ArrivalMs: 1, Disk: 3, LBA: 0, Sectors: 1},
		{ArrivalMs: 2, Disk: 0, LBA: 0, Sectors: 1},
	}.Stream(), []int64{0, 100})
	r, ok := s.Next()
	if !ok || r.LBA != 105 || r.Disk != 0 {
		t.Fatalf("first request = %+v, %v; want remapped LBA 105 on disk 0", r, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("RemapStream accepted a request beyond the offset table")
	}
	err := Err(s)
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

// TestRemapStreamPropagatesInnerError checks that Err surfaces the
// wrapped stream's own failure through the remap layer.
func TestRemapStreamPropagatesInnerError(t *testing.T) {
	rd := NewNativeReader(strings.NewReader("0.0 0 0 8 R\nbogus line\n"), ReaderOpts{})
	s := RemapStream(rd, []int64{0})
	if _, ok := s.Next(); !ok {
		t.Fatal("first request rejected")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("malformed line yielded a request")
	}
	err := Err(s)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Err = %v; want the reader's line-2 parse error", err)
	}
}

// TestBoundStream checks that BoundStream passes fitting requests
// through and ends the stream at the first request whose disk or
// extent does not fit, with an error naming the request and field.
func TestBoundStream(t *testing.T) {
	for _, c := range []struct {
		bad   Request
		wants []string
	}{
		{Request{Disk: 2, LBA: 0, Sectors: 1}, []string{"request 2", "Disk 2", "2-disk"}},
		{Request{Disk: 1, LBA: 99, Sectors: 2}, []string{"request 2", "LBA 99", "Sectors 2", "100 sectors"}},
	} {
		s := BoundStream(Trace{
			{Disk: 0, LBA: 0, Sectors: 100},
			{Disk: 1, LBA: 99, Sectors: 1},
			c.bad,
			{Disk: 0, LBA: 0, Sectors: 1},
		}.Stream(), 2, 100)
		for i := 0; i < 2; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("fitting request %d rejected: %v", i, Err(s))
			}
		}
		if r, ok := s.Next(); ok {
			t.Fatalf("BoundStream accepted %+v", r)
		}
		err := Err(s)
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

// BenchmarkGeneratorStream measures per-request streaming synthesis —
// the steady-state cost a streaming replay pays instead of holding a
// materialized trace.
func BenchmarkGeneratorStream(b *testing.B) {
	b.ReportAllocs()
	spec := TPCC()
	spec.Requests = 1 << 30 // effectively unbounded for the benchmark
	g, err := NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator exhausted")
		}
	}
}
