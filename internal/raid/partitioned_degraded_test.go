package raid

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPartitionedDegradedValidation checks the failure, repair and
// rebuild preconditions hold on the linked coupling of a RAID-5 array.
func TestPartitionedDegradedValidation(t *testing.T) {
	// A redundancy-free layout cannot lose a member at all.
	_, p0 := buildPartitioned(t, false, 4, 1)
	if err := p0.CanFailMember(0); err == nil {
		t.Fatalf("RAID-0 partitioned array accepted a member failure preflight")
	}
	if err := p0.FailMember(0); err == nil {
		t.Fatalf("RAID-0 partitioned array accepted a member failure")
	}

	_, p := buildPartitioned(t, true, 4, 1)
	if err := p.FailMember(-1); err == nil {
		t.Fatalf("negative member accepted")
	}
	if err := p.FailMember(4); err == nil {
		t.Fatalf("out-of-range member accepted")
	}
	if err := p.Rebuild(1, 100, 1, nil); err == nil {
		t.Fatalf("rebuild of a healthy member accepted")
	}
	if err := p.RepairMember(1); err == nil {
		t.Fatalf("repair of a healthy member accepted")
	}
	if err := p.FailMember(1); err != nil {
		t.Fatal(err)
	}
	if err := p.FailMember(1); err == nil {
		t.Fatalf("double failure of one member accepted")
	}
	if err := p.FailMember(2); err == nil {
		t.Fatalf("second member failure accepted under the single-failure model")
	}
	if err := p.Rebuild(1, 0, 1, nil); err == nil {
		t.Fatalf("zero chunk accepted")
	}
	if err := p.Rebuild(1, 100, 0, nil); err == nil {
		t.Fatalf("zero depth accepted")
	}
	if !p.Degraded() {
		t.Fatalf("array not degraded after FailMember")
	}
	if err := p.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("array still degraded after RepairMember")
	}
}

// TestPartitionedDegradedServes checks Array's degraded semantics hold
// across the LP boundary: with a member down, reads keep completing
// (reconstructed from survivors over the links) and the snapshot
// reports the failure state.
func TestPartitionedDegradedServes(t *testing.T) {
	pe, p := buildPartitioned(t, true, 4, 1)
	if err := p.FailMember(2); err != nil {
		t.Fatal(err)
	}
	tr := partTrace(7, 200, p.Capacity())
	resp := replayPartitioned(pe, p, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed degraded (resp %g)", i, r)
		}
	}
	s := p.Snapshot()
	if s.Completed != uint64(len(tr)) {
		t.Fatalf("completed %d of %d degraded requests", s.Completed, len(tr))
	}
	if s.Counters["failed_members"] != 1 {
		t.Fatalf("failed_members %d, want 1", s.Counters["failed_members"])
	}
	if s.Counters["reconstructed"] == 0 {
		t.Fatalf("no reads were served by reconstruction")
	}
}

// TestPartitionedDegradedRandomDeathIdentity is the randomized cross-LP
// determinism check (heap_test idiom): across random member-death
// times, dead members, rebuild schedules, and pipeline depths, a
// degraded run with one worker and with eight must agree bit-for-bit —
// per-request response times, copied sectors, rebuild completion time,
// and snapshot bytes. Run under -race this also exercises that rebuild
// traffic stays on controller-LP closures.
func TestPartitionedDegradedRandomDeathIdentity(t *testing.T) {
	const members = 5
	r5, err := NewRAID5(members, 1<<16, 128)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		d := newDeathTrial(rng, members, r5.MemberExtent(), partTrace(int64(77+trial), 400, r5.Capacity()))
		run := func(workers int) (outcome, uint64) {
			pe, a := buildPartitioned(t, true, members, workers)
			return d.play(t, pe.Runner(0), a), pe.Windows()
		}
		want, win1 := run(1)
		got, win8 := run(8)
		if want.copied == 0 || want.rebuilt < 0 {
			t.Fatalf("trial %d: rebuild never completed (copied %d, done %g)", trial, want.copied, want.rebuilt)
		}
		if win1 != win8 {
			t.Fatalf("trial %d: %d windows with 1 worker, %d with 8", trial, win1, win8)
		}
		got.mustMatch(t, fmt.Sprintf("trial %d, 8 workers vs 1", trial), want)
	}
}
