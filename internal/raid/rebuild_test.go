package raid

import (
	"sort"
	"testing"

	"repro/internal/trace"
)

func TestMemberExtents(t *testing.T) {
	r0, _ := NewRAID0(4, 1000, 10)
	if r0.MemberExtent() != 1000 {
		t.Fatalf("RAID0 extent %d", r0.MemberExtent())
	}
	r1, _ := NewRAID1(2, 777)
	if r1.MemberExtent() != 777 {
		t.Fatalf("RAID1 extent %d", r1.MemberExtent())
	}
	r5, _ := NewRAID5(4, 1000, 10)
	if r5.MemberExtent() != 1000 {
		t.Fatalf("RAID5 extent %d", r5.MemberExtent())
	}
}

func TestRebuildValidation(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	for _, c := range couplings {
		_, a, _ := c.build(t, r5)
		if err := a.Rebuild(0, 100, 1, nil); err == nil {
			t.Fatalf("%s: rebuild of healthy member accepted", c.name)
		}
		if err := a.FailMember(0); err != nil {
			t.Fatal(err)
		}
		if err := a.Rebuild(-1, 100, 1, nil); err == nil {
			t.Fatalf("%s: negative member accepted", c.name)
		}
		if err := a.Rebuild(0, 0, 1, nil); err == nil {
			t.Fatalf("%s: zero chunk accepted", c.name)
		}
		if err := a.Rebuild(0, 100, 0, nil); err == nil {
			t.Fatalf("%s: zero depth accepted", c.name)
		}
	}
}

// TestRebuildCopiesFullExtentAndRestores runs one rebuild on each
// coupling: both sweep the whole member extent with the same I/O and
// return the member to service.
func TestRebuildCopiesFullExtentAndRestores(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	for _, c := range couplings {
		run, a, disks := c.build(t, r5)
		if err := a.FailMember(1); err != nil {
			t.Fatal(err)
		}
		var copied int64
		run.At(0, func() {
			if err := a.Rebuild(1, 100, 2, func(n int64) { copied = n }); err != nil {
				t.Errorf("%s: Rebuild: %v", c.name, err)
			}
		})
		run.Run()
		if copied != r5.MemberExtent() {
			t.Fatalf("%s: copied %d sectors, want the full %d-sector extent", c.name, copied, r5.MemberExtent())
		}
		if a.Degraded() {
			t.Fatalf("%s: array still degraded after rebuild", c.name)
		}
		// 10 chunks: each chunk writes once to the replacement and reads
		// once from each of the three survivors.
		if w := writesTo(disks[1]); w != 10 {
			t.Fatalf("%s: replacement received %d writes, want 10", c.name, w)
		}
		if r := len(disks[0].ops) + len(disks[2].ops) + len(disks[3].ops); r != 30 {
			t.Fatalf("%s: survivors serviced %d reads, want 30", c.name, r)
		}
	}
}

// TestPartitionedRebuildMatchesArray checks the cross-LP rebuild sweeps
// exactly what the direct coupling sweeps for the same layout: the same
// copied-sector count and, member by member, the same set of chunk
// reads and writes, with the member back in service on both.
func TestPartitionedRebuildMatchesArray(t *testing.T) {
	r5, err := NewRAID5(4, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, arrDisks := fakeArray(t, r5, nil)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var arrCopied int64
	eng.At(0, func() {
		if err := a.Rebuild(1, 100, 2, func(n int64) { arrCopied = n }); err != nil {
			t.Errorf("direct Rebuild: %v", err)
		}
	})
	eng.Run()

	pe, p, partDisks := linkedArray(t, r5, 1)
	if err := p.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var partCopied int64
	pe.LP(0).At(0, func() {
		if err := p.Rebuild(1, 100, 2, func(n int64) { partCopied = n }); err != nil {
			t.Errorf("linked Rebuild: %v", err)
		}
	})
	pe.Run()

	if arrCopied != r5.MemberExtent() || partCopied != arrCopied {
		t.Fatalf("copied direct=%d linked=%d, want both the %d-sector extent",
			arrCopied, partCopied, r5.MemberExtent())
	}
	if a.Degraded() || p.Degraded() {
		t.Fatalf("degraded after rebuild: direct=%v linked=%v", a.Degraded(), p.Degraded())
	}
	for i := range arrDisks {
		want, got := sortedOps(arrDisks[i].ops), sortedOps(partDisks[i].ops)
		if len(got) != len(want) {
			t.Fatalf("member %d: linked rebuild issued %d ops, direct %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("member %d op %d: linked %+v, direct %+v", i, k, got[k], want[k])
			}
		}
	}
}

// sortedOps returns a member's ops ordered by LBA, then reads first.
func sortedOps(ops []trace.Request) []trace.Request {
	s := append([]trace.Request(nil), ops...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].LBA != s[j].LBA {
			return s[i].LBA < s[j].LBA
		}
		return s[i].Read && !s[j].Read
	})
	return s
}

// writesTo counts the writes a member received.
func writesTo(d *fakeDisk) int {
	n := 0
	for _, op := range d.ops {
		if !op.Read {
			n++
		}
	}
	return n
}

func TestRebuildDepthBoundsConcurrency(t *testing.T) {
	r1, _ := NewRAID1(2, 400)
	// With depth 1, chunks serialize: 4 chunks × (1 ms read + 1 ms
	// write) = 8 ms. With depth 4 everything overlaps on the idle
	// fakes: 2 ms.
	for depth, want := range map[int]float64{1: 8, 4: 2} {
		eng, a, _ := fakeArray(t, r1, []float64{1, 1})
		if err := a.FailMember(0); err != nil {
			t.Fatal(err)
		}
		var doneAt float64
		eng.At(0, func() {
			if err := a.Rebuild(0, 100, depth, func(int64) { doneAt = eng.Now() }); err != nil {
				t.Errorf("Rebuild: %v", err)
			}
		})
		eng.Run()
		if doneAt != want {
			t.Fatalf("depth-%d rebuild finished at %v, want %v", depth, doneAt, want)
		}
	}
}

// stubLayout is a redundant layout with a configurable member extent
// whose Reconstruct derives chunks without any survivor I/O — the two
// edge shapes the rebuild completion logic must survive.
type stubLayout struct {
	members int
	extent  int64
}

func (s *stubLayout) Name() string                          { return "stub" }
func (s *stubLayout) Members() int                          { return s.members }
func (s *stubLayout) Capacity() int64                       { return s.extent }
func (s *stubLayout) Plan(dst *Plan, _ trace.Request) error { dst.begin(0); return nil }
func (s *stubLayout) MemberExtent() int64                   { return s.extent }
func (s *stubLayout) Reconstruct(dst []Op, _ Op, _ int) ([]Op, error) {
	return dst, nil
}

// Regression: a zero-sector member extent used to leave the rebuild
// stuck forever — the issue loop exited without inflight I/O, so
// finish() never ran, onDone never fired, and the member stayed failed.
func TestRebuildZeroExtentCompletesImmediately(t *testing.T) {
	lay := &stubLayout{members: 2, extent: 0}
	eng, a, disks := fakeArray(t, lay, nil)
	if err := a.FailMember(0); err != nil {
		t.Fatal(err)
	}
	copied := int64(-1)
	if err := a.Rebuild(0, 100, 2, func(n int64) { copied = n }); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	eng.Run()
	if copied != 0 {
		t.Fatalf("onDone reported %d copied sectors, want 0 (and -1 means it never fired)", copied)
	}
	if a.Degraded() {
		t.Fatalf("member still failed after the trivial sweep")
	}
	for i, d := range disks {
		if len(d.ops) != 0 {
			t.Fatalf("member %d received %d ops rebuilding an empty extent", i, len(d.ops))
		}
	}
}

// Regression: a layout whose Reconstruct needs no survivor reads used to
// strand every chunk — nothing ever completed to decrement inflight, so
// the sweep hung with the member failed and onDone unreached.
func TestRebuildCompletesWhenReconstructNeedsNoReads(t *testing.T) {
	lay := &stubLayout{members: 2, extent: 400}
	eng, a, disks := fakeArray(t, lay, nil)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var copied int64
	doneAt := -1.0
	eng.At(0, func() {
		if err := a.Rebuild(1, 100, 2, func(n int64) { copied, doneAt = n, eng.Now() }); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
	})
	eng.Run()
	if doneAt < 0 {
		t.Fatalf("rebuild never finished")
	}
	if copied != 400 {
		t.Fatalf("copied %d sectors, want the full 400-sector extent", copied)
	}
	if a.Degraded() {
		t.Fatalf("member still failed after rebuild")
	}
	if got := len(disks[0].ops); got != 0 {
		t.Fatalf("survivor serviced %d reads, want 0 from a derive-only layout", got)
	}
	if w := writesTo(disks[1]); w != 4 {
		t.Fatalf("replacement received %d writes, want 4 chunks", w)
	}
}

func TestForegroundFlowsDuringRebuild(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	eng, a, _ := fakeArray(t, r5, nil)
	if err := a.FailMember(2); err != nil {
		t.Fatal(err)
	}
	fgDone := 0
	eng.At(0, func() {
		if err := a.Rebuild(2, 50, 1, nil); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
		for i := int64(0); i < 5; i++ {
			a.Submit(trace.Request{LBA: i * 10, Sectors: 10, Read: true},
				func(float64) { fgDone++ })
		}
	})
	eng.Run()
	if fgDone != 5 {
		t.Fatalf("foreground completed %d of 5 during rebuild", fgDone)
	}
	if a.Degraded() {
		t.Fatalf("rebuild did not finish")
	}
}
