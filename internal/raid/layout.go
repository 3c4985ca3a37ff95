// Package raid models multi-disk storage arrays: the JBOD concatenation
// used for the paper's MD systems, RAID-0 striping (the paper's §7.3
// arrays), and — beyond the paper — RAID-1 mirroring and RAID-5 rotating
// parity with read-modify-write updates.
package raid

import (
	"fmt"

	"repro/internal/trace"
)

// Op is one member-disk operation derived from an array request.
type Op struct {
	Dev     int
	LBA     int64
	Sectors int
	Read    bool
}

// Plan is the set of member operations an array request expands to.
// Phases execute sequentially: every op of phase i completes before any
// op of phase i+1 starts (RAID-5 read-modify-write needs two phases).
type Plan struct {
	Phases [][]Op
}

// Reconstructor is implemented by layouts with enough redundancy to
// service reads aimed at a failed member from the surviving disks.
type Reconstructor interface {
	// Reconstruct expands a read op that targets the failed member into
	// the surviving-member reads needed to rebuild its data.
	Reconstruct(op Op, failed int) ([]Op, error)
}

// Layout maps array-level requests to member-disk operations.
type Layout interface {
	// Name identifies the layout for reports.
	Name() string
	// Members reports the number of member disks.
	Members() int
	// Capacity reports the array's logical size in sectors.
	Capacity() int64
	// Plan expands one array request. It returns an error when the
	// request falls outside the array's logical space.
	Plan(r trace.Request) (Plan, error)
}

// ---------------------------------------------------------------------
// JBOD: concatenation. This is the paper's MD model — each traced
// request already names its disk, but a JBOD layout also lets a single
// flat address space span the members in disk order.

// JBOD concatenates member disks into one flat address space.
type JBOD struct {
	caps    []int64
	offsets []int64 // starting logical address of each member
	total   int64
}

// NewJBOD builds a concatenation of members with the given capacities.
func NewJBOD(memberSectors []int64) (*JBOD, error) {
	if len(memberSectors) == 0 {
		return nil, fmt.Errorf("raid: JBOD needs at least one member")
	}
	j := &JBOD{caps: append([]int64(nil), memberSectors...)}
	j.offsets = make([]int64, len(memberSectors))
	for i, c := range memberSectors {
		if c <= 0 {
			return nil, fmt.Errorf("raid: member %d capacity %d", i, c)
		}
		j.offsets[i] = j.total
		j.total += c
	}
	return j, nil
}

// Name implements Layout.
func (j *JBOD) Name() string { return fmt.Sprintf("JBOD-%d", len(j.caps)) }

// Members implements Layout.
func (j *JBOD) Members() int { return len(j.caps) }

// Capacity implements Layout.
func (j *JBOD) Capacity() int64 { return j.total }

// Offsets returns each member's starting logical address — exactly the
// offsets trace.Trace.Remap needs for the paper's MD→HC-SD migration.
func (j *JBOD) Offsets() []int64 { return append([]int64(nil), j.offsets...) }

// Plan implements Layout, splitting requests at member boundaries.
func (j *JBOD) Plan(r trace.Request) (Plan, error) {
	if r.LBA < 0 || r.End() > j.total {
		return Plan{}, fmt.Errorf("raid: request [%d,%d) outside JBOD of %d", r.LBA, r.End(), j.total)
	}
	var ops []Op
	lba := r.LBA
	remaining := r.Sectors
	for remaining > 0 {
		dev := 0
		for dev < len(j.caps)-1 && lba >= j.offsets[dev+1] {
			dev++
		}
		within := lba - j.offsets[dev]
		chunk := j.caps[dev] - within
		if chunk > int64(remaining) {
			chunk = int64(remaining)
		}
		ops = append(ops, Op{Dev: dev, LBA: within, Sectors: int(chunk), Read: r.Read})
		lba += chunk
		remaining -= int(chunk)
	}
	return Plan{Phases: [][]Op{ops}}, nil
}

// ---------------------------------------------------------------------
// RAID-0: striping.

// RAID0 stripes the address space across members in fixed stripe units.
type RAID0 struct {
	members    int
	stripeUnit int64 // sectors per stripe unit
	total      int64
}

// NewRAID0 builds a stripe set of `members` equal disks.
func NewRAID0(members int, memberSectors, stripeUnitSectors int64) (*RAID0, error) {
	switch {
	case members <= 0:
		return nil, fmt.Errorf("raid: RAID0 needs positive member count")
	case memberSectors <= 0:
		return nil, fmt.Errorf("raid: member capacity %d", memberSectors)
	case stripeUnitSectors <= 0:
		return nil, fmt.Errorf("raid: stripe unit %d", stripeUnitSectors)
	}
	stripes := memberSectors / stripeUnitSectors
	if stripes == 0 {
		return nil, fmt.Errorf("raid: stripe unit larger than member")
	}
	total := int64(members) * stripes * stripeUnitSectors
	if members == 1 {
		// A one-member stripe set maps its member 1:1, so the partial
		// last stripe is addressable too.
		total = memberSectors
	}
	return &RAID0{
		members:    members,
		stripeUnit: stripeUnitSectors,
		total:      total,
	}, nil
}

// Name implements Layout.
func (r0 *RAID0) Name() string { return fmt.Sprintf("RAID0-%d", r0.members) }

// Members implements Layout.
func (r0 *RAID0) Members() int { return r0.members }

// Capacity implements Layout.
func (r0 *RAID0) Capacity() int64 { return r0.total }

// Plan implements Layout.
func (r0 *RAID0) Plan(r trace.Request) (Plan, error) {
	if r.LBA < 0 || r.End() > r0.total {
		return Plan{}, fmt.Errorf("raid: request [%d,%d) outside RAID0 of %d", r.LBA, r.End(), r0.total)
	}
	var ops []Op
	lba := r.LBA
	remaining := r.Sectors
	for remaining > 0 {
		stripe := lba / r0.stripeUnit
		off := lba % r0.stripeUnit
		dev := int(stripe % int64(r0.members))
		memberLBA := (stripe/int64(r0.members))*r0.stripeUnit + off
		chunk := r0.stripeUnit - off
		if chunk > int64(remaining) {
			chunk = int64(remaining)
		}
		ops = append(ops, Op{Dev: dev, LBA: memberLBA, Sectors: int(chunk), Read: r.Read})
		lba += chunk
		remaining -= int(chunk)
	}
	return Plan{Phases: [][]Op{ops}}, nil
}

// ---------------------------------------------------------------------
// RAID-1: mirroring.

// RAID1 mirrors the address space across all members. Reads alternate
// between mirrors; writes go to every mirror.
type RAID1 struct {
	members   int
	memberCap int64
	next      int // round-robin read cursor
}

// NewRAID1 builds an n-way mirror.
func NewRAID1(members int, memberSectors int64) (*RAID1, error) {
	if members < 2 {
		return nil, fmt.Errorf("raid: RAID1 needs at least two members")
	}
	if memberSectors <= 0 {
		return nil, fmt.Errorf("raid: member capacity %d", memberSectors)
	}
	return &RAID1{members: members, memberCap: memberSectors}, nil
}

// Name implements Layout.
func (r1 *RAID1) Name() string { return fmt.Sprintf("RAID1-%d", r1.members) }

// Members implements Layout.
func (r1 *RAID1) Members() int { return r1.members }

// Capacity implements Layout.
func (r1 *RAID1) Capacity() int64 { return r1.memberCap }

// Plan implements Layout.
func (r1 *RAID1) Plan(r trace.Request) (Plan, error) {
	if r.LBA < 0 || r.End() > r1.memberCap {
		return Plan{}, fmt.Errorf("raid: request [%d,%d) outside RAID1 of %d", r.LBA, r.End(), r1.memberCap)
	}
	if r.Read {
		dev := r1.next
		r1.next = (r1.next + 1) % r1.members
		return Plan{Phases: [][]Op{{{Dev: dev, LBA: r.LBA, Sectors: r.Sectors, Read: true}}}}, nil
	}
	ops := make([]Op, r1.members)
	for i := range ops {
		ops[i] = Op{Dev: i, LBA: r.LBA, Sectors: r.Sectors, Read: false}
	}
	return Plan{Phases: [][]Op{ops}}, nil
}

// ---------------------------------------------------------------------
// RAID-5: rotating parity (left-asymmetric).

// RAID5 stripes data with one rotating parity unit per stripe row.
// Small writes expand to read-modify-write: read old data and parity,
// then write new data and parity.
type RAID5 struct {
	members    int
	memberCap  int64
	stripeUnit int64
	rows       int64
	total      int64
}

// NewRAID5 builds a rotating-parity array of `members` equal disks.
func NewRAID5(members int, memberSectors, stripeUnitSectors int64) (*RAID5, error) {
	switch {
	case members < 3:
		return nil, fmt.Errorf("raid: RAID5 needs at least three members")
	case memberSectors <= 0:
		return nil, fmt.Errorf("raid: member capacity %d", memberSectors)
	case stripeUnitSectors <= 0:
		return nil, fmt.Errorf("raid: stripe unit %d", stripeUnitSectors)
	}
	rows := memberSectors / stripeUnitSectors
	if rows == 0 {
		return nil, fmt.Errorf("raid: stripe unit larger than member")
	}
	return &RAID5{
		members:    members,
		memberCap:  memberSectors,
		stripeUnit: stripeUnitSectors,
		rows:       rows,
		total:      int64(members-1) * rows * stripeUnitSectors,
	}, nil
}

// Name implements Layout.
func (r5 *RAID5) Name() string { return fmt.Sprintf("RAID5-%d", r5.members) }

// Members implements Layout.
func (r5 *RAID5) Members() int { return r5.members }

// Capacity implements Layout.
func (r5 *RAID5) Capacity() int64 { return r5.total }

// locate maps a logical address to (row, data device, member LBA).
func (r5 *RAID5) locate(lba int64) (row int64, dev int, memberLBA int64) {
	stripe := lba / r5.stripeUnit
	off := lba % r5.stripeUnit
	row = stripe / int64(r5.members-1)
	pos := int(stripe % int64(r5.members-1))
	parity := int(row % int64(r5.members))
	dev = pos
	if dev >= parity {
		dev++
	}
	return row, dev, row*r5.stripeUnit + off
}

// ParityDev reports the parity member of a stripe row.
func (r5 *RAID5) ParityDev(row int64) int { return int(row % int64(r5.members)) }

// Plan implements Layout.
func (r5 *RAID5) Plan(r trace.Request) (Plan, error) {
	if r.LBA < 0 || r.End() > r5.total {
		return Plan{}, fmt.Errorf("raid: request [%d,%d) outside RAID5 of %d", r.LBA, r.End(), r5.total)
	}
	// Split into per-stripe-unit chunks first.
	type chunk struct {
		row       int64
		dev       int
		memberLBA int64
		sectors   int
	}
	var chunks []chunk
	lba := r.LBA
	remaining := r.Sectors
	for remaining > 0 {
		row, dev, mlba := r5.locate(lba)
		off := mlba % r5.stripeUnit
		n := r5.stripeUnit - off
		if n > int64(remaining) {
			n = int64(remaining)
		}
		chunks = append(chunks, chunk{row: row, dev: dev, memberLBA: mlba, sectors: int(n)})
		lba += n
		remaining -= int(n)
	}
	if r.Read {
		ops := make([]Op, len(chunks))
		for i, c := range chunks {
			ops[i] = Op{Dev: c.dev, LBA: c.memberLBA, Sectors: c.sectors, Read: true}
		}
		return Plan{Phases: [][]Op{ops}}, nil
	}
	// Write: read-modify-write per chunk — read old data and old parity,
	// then write new data and new parity.
	var reads, writes []Op
	for _, c := range chunks {
		p := r5.ParityDev(c.row)
		reads = append(reads,
			Op{Dev: c.dev, LBA: c.memberLBA, Sectors: c.sectors, Read: true},
			Op{Dev: p, LBA: c.memberLBA, Sectors: c.sectors, Read: true},
		)
		writes = append(writes,
			Op{Dev: c.dev, LBA: c.memberLBA, Sectors: c.sectors, Read: false},
			Op{Dev: p, LBA: c.memberLBA, Sectors: c.sectors, Read: false},
		)
	}
	return Plan{Phases: [][]Op{reads, writes}}, nil
}

// Reconstruct implements Reconstructor for RAID-1: read the same blocks
// from any surviving mirror.
func (r1 *RAID1) Reconstruct(op Op, failed int) ([]Op, error) {
	if !op.Read {
		return nil, fmt.Errorf("raid: reconstruct of a write")
	}
	for dev := 0; dev < r1.members; dev++ {
		if dev != failed {
			return []Op{{Dev: dev, LBA: op.LBA, Sectors: op.Sectors, Read: true}}, nil
		}
	}
	return nil, fmt.Errorf("raid: no surviving mirror")
}

// Reconstruct implements Reconstructor for RAID-5: rebuild the failed
// member's blocks by reading the same stripe extent from every survivor
// and XORing (the XOR itself is free in simulation; the I/O is the cost).
func (r5 *RAID5) Reconstruct(op Op, failed int) ([]Op, error) {
	if !op.Read {
		return nil, fmt.Errorf("raid: reconstruct of a write")
	}
	ops := make([]Op, 0, r5.members-1)
	for dev := 0; dev < r5.members; dev++ {
		if dev == failed {
			continue
		}
		ops = append(ops, Op{Dev: dev, LBA: op.LBA, Sectors: op.Sectors, Read: true})
	}
	return ops, nil
}

// ---------------------------------------------------------------------
// RAID-10: striping over mirrored pairs.

// RAID10 stripes the address space across mirrored pairs of members:
// member 2i and 2i+1 hold identical data. Reads alternate within a
// pair; writes go to both halves.
type RAID10 struct {
	members    int
	memberCap  int64
	stripeUnit int64
	stripesPer int64
	total      int64
	next       int // read cursor, alternates mirror halves
}

// NewRAID10 builds a striped-mirror set of `members` equal disks
// (members must be even and at least 2).
func NewRAID10(members int, memberSectors, stripeUnitSectors int64) (*RAID10, error) {
	switch {
	case members < 2 || members%2 != 0:
		return nil, fmt.Errorf("raid: RAID10 needs an even member count >= 2, got %d", members)
	case memberSectors <= 0:
		return nil, fmt.Errorf("raid: member capacity %d", memberSectors)
	case stripeUnitSectors <= 0:
		return nil, fmt.Errorf("raid: stripe unit %d", stripeUnitSectors)
	}
	stripes := memberSectors / stripeUnitSectors
	if stripes == 0 {
		return nil, fmt.Errorf("raid: stripe unit larger than member")
	}
	return &RAID10{
		members:    members,
		memberCap:  memberSectors,
		stripeUnit: stripeUnitSectors,
		stripesPer: stripes,
		total:      int64(members/2) * stripes * stripeUnitSectors,
	}, nil
}

// Name implements Layout.
func (r *RAID10) Name() string { return fmt.Sprintf("RAID10-%d", r.members) }

// Members implements Layout.
func (r *RAID10) Members() int { return r.members }

// Capacity implements Layout.
func (r *RAID10) Capacity() int64 { return r.total }

// MemberExtent implements MemberSizer.
func (r *RAID10) MemberExtent() int64 { return r.stripesPer * r.stripeUnit }

// Plan implements Layout.
func (r *RAID10) Plan(req trace.Request) (Plan, error) {
	if req.LBA < 0 || req.End() > r.total {
		return Plan{}, fmt.Errorf("raid: request [%d,%d) outside RAID10 of %d", req.LBA, req.End(), r.total)
	}
	pairs := r.members / 2
	var ops []Op
	lba := req.LBA
	remaining := req.Sectors
	for remaining > 0 {
		stripe := lba / r.stripeUnit
		off := lba % r.stripeUnit
		pair := int(stripe % int64(pairs))
		memberLBA := (stripe/int64(pairs))*r.stripeUnit + off
		chunk := r.stripeUnit - off
		if chunk > int64(remaining) {
			chunk = int64(remaining)
		}
		if req.Read {
			dev := pair*2 + r.next%2
			r.next++
			ops = append(ops, Op{Dev: dev, LBA: memberLBA, Sectors: int(chunk), Read: true})
		} else {
			ops = append(ops,
				Op{Dev: pair * 2, LBA: memberLBA, Sectors: int(chunk), Read: false},
				Op{Dev: pair*2 + 1, LBA: memberLBA, Sectors: int(chunk), Read: false},
			)
		}
		lba += chunk
		remaining -= int(chunk)
	}
	return Plan{Phases: [][]Op{ops}}, nil
}

// Reconstruct implements Reconstructor: read from the mirror twin.
func (r *RAID10) Reconstruct(op Op, failed int) ([]Op, error) {
	if !op.Read {
		return nil, fmt.Errorf("raid: reconstruct of a write")
	}
	twin := failed ^ 1
	return []Op{{Dev: twin, LBA: op.LBA, Sectors: op.Sectors, Read: true}}, nil
}
