package raid

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// instrumentedDisk wraps fakeDisk with a device.Instrumented surface so
// array roll-up tests can see member snapshots.
type instrumentedDisk struct {
	*fakeDisk
	name string
}

func (d *instrumentedDisk) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Device:    d.name,
		Kind:      "fake-disk",
		Submitted: uint64(len(d.ops)),
		Completed: uint64(len(d.ops)),
	}
}

var _ device.Instrumented = (*instrumentedDisk)(nil)

func instrumentedMembers(eng *simkit.Engine, n int) []device.Device {
	members := make([]device.Device, n)
	for i := range members {
		members[i] = &instrumentedDisk{
			fakeDisk: &fakeDisk{s: eng, latencyMs: 1, capacity: 1 << 40},
			name:     fmt.Sprintf("m%d", i),
		}
	}
	return members
}

// TestArraySnapshotRollsUpMembers checks that an array snapshot nests
// one child per instrumented member, in member order.
func TestArraySnapshotRollsUpMembers(t *testing.T) {
	eng := simkit.New()
	layout, err := NewRAID0(3, 1<<20, 128)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(layout, instrumentedMembers(eng, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a.Submit(trace.Request{LBA: int64(i) * 700, Sectors: 64, Read: true}, nil)
	}
	eng.Run()

	s := a.Snapshot()
	if s.Kind != "raid" || s.Device != layout.Name() {
		t.Fatalf("identity %q/%q", s.Device, s.Kind)
	}
	if s.Submitted != 7 || s.Completed != 7 {
		t.Fatalf("array counted %d/%d", s.Submitted, s.Completed)
	}
	if len(s.Children) != 3 {
		t.Fatalf("got %d children, want 3", len(s.Children))
	}
	var fanned uint64
	for i, c := range s.Children {
		if want := fmt.Sprintf("m%d", i); c.Device != want {
			t.Fatalf("child %d is %q, want %q (member order broken)", i, c.Device, want)
		}
		fanned += c.Submitted
	}
	if fanned < 7 {
		t.Fatalf("members saw %d sub-requests for 7 array requests", fanned)
	}
	if s.Counters["failed_members"] != 0 || s.Counters["reconstructed"] != 0 {
		t.Fatalf("healthy array reports %v", s.Counters)
	}
	// Uninstrumented members produce no children.
	_, bare, _ := fakeArray(t, layout, nil)
	if got := bare.Snapshot(); len(got.Children) != 0 {
		t.Fatalf("bare members produced %d children", len(got.Children))
	}
}

// TestRouteByDiskSnapshotSumsMembers checks the MD router's roll-up.
func TestRouteByDiskSnapshotSumsMembers(t *testing.T) {
	eng := simkit.New()
	rt, err := NewRouteByDisk(instrumentedMembers(eng, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rt.Submit(trace.Request{LBA: int64(i) * 64, Sectors: 8, Read: true, Disk: i % 2}, nil)
	}
	eng.Run()

	s := rt.Snapshot()
	if s.Kind != "route-by-disk" || s.Device != "md" {
		t.Fatalf("identity %q/%q", s.Device, s.Kind)
	}
	if len(s.Children) != 2 || s.Children[0].Device != "m0" || s.Children[1].Device != "m1" {
		t.Fatalf("children %+v", s.Children)
	}
	if s.Submitted != 5 || s.Children[0].Submitted != 3 || s.Children[1].Submitted != 2 {
		t.Fatalf("submitted roll-up wrong: %d (%d + %d)",
			s.Submitted, s.Children[0].Submitted, s.Children[1].Submitted)
	}
}
