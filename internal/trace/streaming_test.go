package trace

import (
	"strings"
	"testing"
)

// TestGeneratorMatchesGenerate pins the streaming contract for every
// workload spec and several seeds: a generator yields exactly the
// sequence a twin generator from the same (spec, seed) yields, stops
// after spec.Requests requests, and yields nothing past exhaustion.
func TestGeneratorMatchesGenerate(t *testing.T) {
	for _, spec := range Workloads() {
		spec := spec.WithRequests(5000)
		for seed := int64(1); seed <= 3; seed++ {
			want := generate(t, spec, seed)
			if len(want) != spec.Requests {
				t.Fatalf("%s seed %d: %d requests, want %d", spec.Name, seed, len(want), spec.Requests)
			}
			g, err := NewGenerator(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if r, ok := g.Next(); !ok || r != w {
					t.Fatalf("%s seed %d: request %d = %+v, %v; want %+v", spec.Name, seed, i, r, ok, w)
				}
			}
			if _, ok := g.Next(); ok {
				t.Fatalf("%s seed %d: Next yielded past exhaustion", spec.Name, seed)
			}
		}
	}
}

// TestRemapStreamMatchesRemap checks the streaming migration against
// the remap arithmetic: every request of a twin generator lands on disk
// 0 at its own disk's offset plus its LBA.
func TestRemapStreamMatchesRemap(t *testing.T) {
	spec := Financial().WithRequests(2000)
	offsets := make([]int64, spec.Disks)
	for i := range offsets {
		offsets[i] = int64(i) * 1 << 25
	}
	g, err := NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := generate(t, spec, 7)
	got, err := drain(RemapStream(g, offsets))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d requests, want %d", len(got), len(want))
	}
	for i, w := range want {
		w.LBA += offsets[w.Disk]
		w.Disk = 0
		if got[i] != w {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], w)
		}
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

// lenCountsDown drains n requests from s, checking before each Next
// that Len reports exactly the requests still to come, and that Len is
// 0 once s is exhausted.
func lenCountsDown(t *testing.T, name string, s Stream, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := Len(s); got != n-i {
			t.Fatalf("%s: Len = %d before request %d, want %d", name, got, i, n-i)
		}
		if _, ok := s.Next(); !ok {
			t.Fatalf("%s: stream ended at request %d of %d: %v", name, i, n, Err(s))
		}
	}
	if got := Len(s); got != 0 {
		t.Fatalf("%s: Len = %d after the last request, want 0", name, got)
	}
	if _, ok := s.Next(); ok {
		t.Fatalf("%s: Next yielded past Len", name)
	}
	if got := Len(s); got != 0 {
		t.Fatalf("%s: Len = %d past exhaustion, want 0", name, got)
	}
}

// TestStreamLen checks each stream type's length: a generator and the
// remap and bound layers over it count down to 0 in step with Next;
// the layers report 0 once they have stopped on a request they reject,
// though the generator under them still has requests; and streams that
// cannot tell (a trace Reader, or a layer over one) report -1.
func TestStreamLen(t *testing.T) {
	spec := Financial().WithRequests(500)
	gen := func() *Generator {
		g, err := NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	offsets := make([]int64, spec.Disks)
	lenCountsDown(t, "generator", gen(), spec.Requests)
	lenCountsDown(t, "remap", RemapStream(gen(), offsets), spec.Requests)
	lenCountsDown(t, "bound", BoundStream(gen(), spec.Disks, 1<<40), spec.Requests)

	// Only disk 0 is routable (remap) or inside the array (bound), so
	// each layer stops at the first request for another disk.
	for name, s := range map[string]Stream{
		"remap unroutable": RemapStream(gen(), offsets[:1]),
		"bound outside":    BoundStream(gen(), 1, 1<<40),
	} {
		yielded := 0
		for {
			if got, want := Len(s), spec.Requests-yielded; got != want {
				t.Fatalf("%s: Len = %d after %d requests, want %d", name, got, yielded, want)
			}
			if _, ok := s.Next(); !ok {
				break
			}
			yielded++
		}
		if Err(s) == nil || yielded == spec.Requests {
			t.Fatalf("%s: stream ran %d requests without stopping on a rejected one", name, yielded)
		}
		if got := Len(s); got != 0 {
			t.Fatalf("%s: Len = %d after the stop, want 0", name, got)
		}
	}

	reader := func() Stream { return NewNativeReader(strings.NewReader("0.0 0 0 8 R\n"), ReaderOpts{}) }
	for name, s := range map[string]Stream{
		"reader":          reader(),
		"remap of reader": RemapStream(reader(), offsets),
		"bound of reader": BoundStream(reader(), 1, 1<<40),
	} {
		if got := Len(s); got != -1 {
			t.Fatalf("%s: Len = %d, want -1", name, got)
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
