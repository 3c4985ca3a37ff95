// Package defect models grown-defect management: sectors that develop
// media errors after manufacturing are remapped to a reserved spare area
// at the inner edge of the drive (the classic "grown defect list" +
// spare-pool scheme). A request touching a remapped sector costs an
// extra mechanical hop to the spare area, which is why drives with long
// defect lists get slow — and why SMART watches the reallocation count
// (see internal/smart's ReallocatedSectors attribute).
package defect

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
)

// Table is a grown-defect list with spare-pool remapping. The zero value
// is unusable; construct with NewTable.
type Table struct {
	userSectors  int64 // addressable space [0, userSectors)
	spareStart   int64 // first sector of the spare pool
	spareCount   int64
	remaps       []remap // ascending by defective lba
	nextSpare    int64
	reallocated  uint64
	exhaustedAdd uint64
}

// NewTable builds a defect table for a drive whose total capacity is
// totalSectors, reserving the last spareSectors of it as the spare pool.
// Callers expose only [0, totalSectors-spareSectors) as user space.
func NewTable(totalSectors, spareSectors int64) (*Table, error) {
	if totalSectors <= 0 {
		return nil, fmt.Errorf("defect: totalSectors %d must be positive", totalSectors)
	}
	if spareSectors <= 0 || spareSectors >= totalSectors {
		return nil, fmt.Errorf("defect: spareSectors %d outside (0,%d)", spareSectors, totalSectors)
	}
	return &Table{
		userSectors: totalSectors - spareSectors,
		spareStart:  totalSectors - spareSectors,
		spareCount:  spareSectors,
	}, nil
}

// remap is one grown defect: a user sector and the spare it moved to.
type remap struct {
	lba, spare int64
}

// search returns the index of the first remap at or above lba.
func (t *Table) search(lba int64) int {
	return sort.Search(len(t.remaps), func(i int) bool { return t.remaps[i].lba >= lba })
}

// UserSectors reports the addressable user space.
func (t *Table) UserSectors() int64 { return t.userSectors }

// Reallocated reports how many sectors have been remapped — the SMART
// reallocation count.
func (t *Table) Reallocated() uint64 { return t.reallocated }

// SparesLeft reports the remaining spare capacity.
func (t *Table) SparesLeft() int64 { return t.spareCount - t.nextSpare }

// Grow marks a user sector defective, assigning it the next spare.
// It reports an error when the sector is out of range, already remapped,
// or the spare pool is exhausted (the drive is failing; SMART should
// have deconfigured it long before).
func (t *Table) Grow(lba int64) error {
	if lba < 0 || lba >= t.userSectors {
		return fmt.Errorf("defect: lba %d outside user space [0,%d)", lba, t.userSectors)
	}
	i := t.search(lba)
	if i < len(t.remaps) && t.remaps[i].lba == lba {
		return fmt.Errorf("defect: lba %d already remapped", lba)
	}
	if t.nextSpare >= t.spareCount {
		t.exhaustedAdd++
		return fmt.Errorf("defect: spare pool exhausted (%d remaps)", t.reallocated)
	}
	t.remaps = slices.Insert(t.remaps, i, remap{lba: lba, spare: t.spareStart + t.nextSpare})
	t.nextSpare++
	t.reallocated++
	return nil
}

// Resolve maps a user sector to its physical sector: itself when
// healthy, its spare when remapped.
func (t *Table) Resolve(lba int64) int64 {
	if i := t.search(lba); i < len(t.remaps) && t.remaps[i].lba == lba {
		return t.remaps[i].spare
	}
	return lba
}

// Snapshot reports the defect list on the uniform obs surface:
// the reallocation count (the SMART attribute), refused grows after
// spare exhaustion, and the spare-pool fill level.
func (t *Table) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Device: "defects",
		Kind:   "defect-table",
		Counters: map[string]uint64{
			"reallocated":     t.reallocated,
			"spare_exhausted": t.exhaustedAdd,
		},
		Gauges: map[string]obs.GaugeValue{
			"spares_used": {Value: float64(t.nextSpare), Max: float64(t.spareCount)},
		},
		Histograms: map[string]obs.Histogram{},
	}
}

// Extent is a physically contiguous piece of a logical request.
type Extent struct {
	LBA     int64 // physical starting sector
	Sectors int
}

// Split decomposes a logical request [lba, lba+sectors) into physically
// contiguous extents, appended to dst in request order: healthy runs
// stay in place, each remapped sector becomes its own extent in the
// spare area. The extent count is what a drive pays extra positioning
// for. A caller that passes the previous result back as dst[:0] splits
// without allocating once the buffer has grown to its longest split.
func (t *Table) Split(dst []Extent, lba int64, sectors int) ([]Extent, error) {
	end := lba + int64(sectors)
	if lba < 0 || sectors <= 0 || end > t.userSectors {
		return dst, fmt.Errorf("defect: request [%d,%d) outside user space [0,%d)",
			lba, end, t.userSectors)
	}
	cur := lba
	for _, r := range t.remaps[t.search(lba):] {
		if r.lba >= end {
			break
		}
		if r.lba > cur {
			dst = append(dst, Extent{LBA: cur, Sectors: int(r.lba - cur)})
		}
		dst = append(dst, Extent{LBA: r.spare, Sectors: 1})
		cur = r.lba + 1
	}
	if cur < end {
		dst = append(dst, Extent{LBA: cur, Sectors: int(end - cur)})
	}
	return dst, nil
}
