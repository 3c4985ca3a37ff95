package defect

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTable(t testing.TB, total, spare int64) *Table {
	t.Helper()
	tab, err := NewTable(total, spare)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct{ total, spare int64 }{
		{0, 10}, {-1, 10}, {100, 0}, {100, 100}, {100, 150},
	}
	for _, c := range cases {
		if _, err := NewTable(c.total, c.spare); err == nil {
			t.Fatalf("accepted total=%d spare=%d", c.total, c.spare)
		}
	}
	tab := mustTable(t, 1000, 100)
	if tab.UserSectors() != 900 {
		t.Fatalf("UserSectors = %d", tab.UserSectors())
	}
	if tab.SparesLeft() != 100 {
		t.Fatalf("SparesLeft = %d", tab.SparesLeft())
	}
}

func TestGrowAndResolve(t *testing.T) {
	tab := mustTable(t, 1000, 100)
	if got := tab.Resolve(42); got != 42 {
		t.Fatalf("healthy sector resolved to %d", got)
	}
	if err := tab.Grow(42); err != nil {
		t.Fatal(err)
	}
	if got := tab.Resolve(42); got != 900 {
		t.Fatalf("remapped sector resolved to %d, want first spare 900", got)
	}
	if tab.Reallocated() != 1 || tab.SparesLeft() != 99 {
		t.Fatalf("counters wrong: %d/%d", tab.Reallocated(), tab.SparesLeft())
	}
	if err := tab.Grow(42); err == nil {
		t.Fatalf("double grow accepted")
	}
	if err := tab.Grow(-1); err == nil {
		t.Fatalf("negative lba accepted")
	}
	if err := tab.Grow(900); err == nil {
		t.Fatalf("grow inside spare pool accepted")
	}
}

func TestSpareExhaustion(t *testing.T) {
	tab := mustTable(t, 100, 2)
	if err := tab.Grow(1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Grow(2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Grow(3); err == nil {
		t.Fatalf("grow beyond spare pool accepted")
	}
}

func TestSplitHealthyRange(t *testing.T) {
	tab := mustTable(t, 1000, 100)
	ext, err := tab.Split(nil, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 || ext[0].LBA != 10 || ext[0].Sectors != 20 {
		t.Fatalf("healthy split %+v", ext)
	}
	if _, err := tab.Split(nil, 890, 20); err == nil {
		t.Fatalf("split beyond user space accepted")
	}
	if _, err := tab.Split(nil, 0, 0); err == nil {
		t.Fatalf("zero-length split accepted")
	}
}

func TestSplitAroundDefects(t *testing.T) {
	tab := mustTable(t, 1000, 100)
	for _, d := range []int64{15, 18} {
		if err := tab.Grow(d); err != nil {
			t.Fatal(err)
		}
	}
	ext, err := tab.Split(nil, 10, 12) // [10,22): defects at 15 and 18
	if err != nil {
		t.Fatal(err)
	}
	// Expect: [10,15) spare(15) [16,18) spare(18) [19,22)
	want := []Extent{
		{LBA: 10, Sectors: 5},
		{LBA: 900, Sectors: 1},
		{LBA: 16, Sectors: 2},
		{LBA: 901, Sectors: 1},
		{LBA: 19, Sectors: 3},
	}
	if len(ext) != len(want) {
		t.Fatalf("split %+v, want %+v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("extent %d = %+v, want %+v", i, ext[i], want[i])
		}
	}
}

func TestSplitDefectAtBoundaries(t *testing.T) {
	tab := mustTable(t, 1000, 100)
	if err := tab.Grow(10); err != nil {
		t.Fatal(err)
	}
	if err := tab.Grow(19); err != nil {
		t.Fatal(err)
	}
	ext, err := tab.Split(nil, 10, 10) // defects at both ends
	if err != nil {
		t.Fatal(err)
	}
	if ext[0].LBA < 900 || ext[len(ext)-1].LBA < 900 {
		t.Fatalf("boundary defects not remapped: %+v", ext)
	}
}

// Property: Split always covers exactly the requested sector count, and
// healthy extents never overlap a remapped sector.
func TestPropertySplitCoverage(t *testing.T) {
	tab := mustTable(t, 100000, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if err := tab.Grow(rng.Int63n(tab.UserSectors())); err != nil {
			// Duplicate grow attempts are fine to skip.
			continue
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lba := r.Int63n(tab.UserSectors() - 300)
		n := 1 + r.Intn(300)
		ext, err := tab.Split(nil, lba, n)
		if err != nil {
			return false
		}
		total := 0
		for _, e := range ext {
			total += e.Sectors
			if e.Sectors <= 0 {
				return false
			}
			// In-place extents must not contain any remapped sector.
			if e.LBA < tab.UserSectors() {
				for s := e.LBA; s < e.LBA+int64(e.Sectors); s++ {
					if tab.Resolve(s) != s {
						return false
					}
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
