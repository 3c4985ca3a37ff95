// Package raid models multi-disk storage arrays: the pass-through router
// of the paper's MD systems (RouteByDisk), JBOD concatenation, RAID-0
// striping (the paper's §7.3 arrays), and — beyond the paper — RAID-1
// mirroring and RAID-5 rotating parity with read-modify-write updates.
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
//
// A Plan is scratch space: Layout.Plan overwrites it, keeping the
// storage of earlier plans, so an array that reuses one Plan per
// in-flight request plans without allocating. The backing arrays of
// Phases belong to the Plan; a layout must not store in it a slice it
// keeps elsewhere.
type Plan struct {
	Phases [][]Op
}

// begin empties p and opens n empty phases, reusing p's storage.
func (p *Plan) begin(n int) {
	if n > cap(p.Phases) {
		p.Phases = append(p.Phases[:cap(p.Phases)], make([][]Op, n-cap(p.Phases))...)
	}
	p.Phases = p.Phases[:n]
	for i := range p.Phases {
		p.Phases[i] = p.Phases[i][:0]
	}
}

// add appends op to phase i.
func (p *Plan) add(i int, op Op) { p.Phases[i] = append(p.Phases[i], op) }

// checkSpan rejects an empty or negative request and one that falls
// outside a layout of total sectors; kind names the layout.
func checkSpan(kind string, r trace.Request, total int64) error {
	if r.Sectors <= 0 {
		return fmt.Errorf("raid: request Sectors %d must be positive", r.Sectors)
	}
	if r.LBA < 0 || r.End() > total {
		return fmt.Errorf("raid: request [%d,%d) outside %s of %d", r.LBA, r.End(), kind, total)
	}
	return nil
}

// Reconstructor is implemented by layouts with enough redundancy to
// service reads aimed at a failed member from the surviving disks.
type Reconstructor interface {
	// Reconstruct appends to dst the surviving-member reads needed to
	// rebuild the data of a read op that targets the failed member,
	// and returns the extended slice.
	Reconstruct(dst []Op, op Op, failed int) ([]Op, error)
}

// Layout maps array-level requests to member-disk operations.
type Layout interface {
	// Name identifies the layout for reports.
	Name() string
	// Members reports the number of member disks.
	Members() int
	// Capacity reports the array's logical size in sectors.
	Capacity() int64
	// Plan expands one array request into dst, replacing what dst
	// held and reusing its storage. It returns an error when the
	// request is empty (Sectors <= 0) or falls outside the array's
	// logical space.
	Plan(dst *Plan, r trace.Request) error
}

// ---------------------------------------------------------------------
// JBOD: concatenation. The paper's MD model is RouteByDisk, since each
// traced request already names its disk; a JBOD layout instead lets a
// single flat address space span the members in disk order.

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
// offsets trace.RemapStream needs for the paper's MD→HC-SD migration.
func (j *JBOD) Offsets() []int64 { return append([]int64(nil), j.offsets...) }

// Plan implements Layout, splitting requests at member boundaries.
func (j *JBOD) Plan(dst *Plan, r trace.Request) error {
	if err := checkSpan("JBOD", r, j.total); err != nil {
		return err
	}
	dst.begin(1)
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
		dst.add(0, Op{Dev: dev, LBA: within, Sectors: int(chunk), Read: r.Read})
		lba += chunk
		remaining -= int(chunk)
	}
	return nil
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
func (r0 *RAID0) Plan(dst *Plan, r trace.Request) error {
	if err := checkSpan("RAID0", r, r0.total); err != nil {
		return err
	}
	dst.begin(1)
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
		dst.add(0, Op{Dev: dev, LBA: memberLBA, Sectors: int(chunk), Read: r.Read})
		lba += chunk
		remaining -= int(chunk)
	}
	return nil
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
func (r1 *RAID1) Plan(dst *Plan, r trace.Request) error {
	if err := checkSpan("RAID1", r, r1.memberCap); err != nil {
		return err
	}
	dst.begin(1)
	if r.Read {
		dev := r1.next
		r1.next = (r1.next + 1) % r1.members
		dst.add(0, Op{Dev: dev, LBA: r.LBA, Sectors: r.Sectors, Read: true})
		return nil
	}
	for i := 0; i < r1.members; i++ {
		dst.add(0, Op{Dev: i, LBA: r.LBA, Sectors: r.Sectors, Read: false})
	}
	return nil
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
func (r5 *RAID5) Plan(dst *Plan, r trace.Request) error {
	if err := checkSpan("RAID5", r, r5.total); err != nil {
		return err
	}
	// A read is one phase of per-stripe-unit reads. A write is
	// read-modify-write per stripe unit: read old data and old parity,
	// then write new data and new parity.
	if r.Read {
		dst.begin(1)
	} else {
		dst.begin(2)
	}
	lba := r.LBA
	remaining := r.Sectors
	for remaining > 0 {
		row, dev, mlba := r5.locate(lba)
		off := mlba % r5.stripeUnit
		n := r5.stripeUnit - off
		if n > int64(remaining) {
			n = int64(remaining)
		}
		if r.Read {
			dst.add(0, Op{Dev: dev, LBA: mlba, Sectors: int(n), Read: true})
		} else {
			p := r5.ParityDev(row)
			dst.add(0, Op{Dev: dev, LBA: mlba, Sectors: int(n), Read: true})
			dst.add(0, Op{Dev: p, LBA: mlba, Sectors: int(n), Read: true})
			dst.add(1, Op{Dev: dev, LBA: mlba, Sectors: int(n), Read: false})
			dst.add(1, Op{Dev: p, LBA: mlba, Sectors: int(n), Read: false})
		}
		lba += n
		remaining -= int(n)
	}
	return nil
}

// Reconstruct implements Reconstructor for RAID-1: read the same blocks
// from any surviving mirror.
func (r1 *RAID1) Reconstruct(dst []Op, op Op, failed int) ([]Op, error) {
	if !op.Read {
		return dst, fmt.Errorf("raid: reconstruct of a write")
	}
	for dev := 0; dev < r1.members; dev++ {
		if dev != failed {
			return append(dst, Op{Dev: dev, LBA: op.LBA, Sectors: op.Sectors, Read: true}), nil
		}
	}
	return dst, fmt.Errorf("raid: no surviving mirror")
}

// Reconstruct implements Reconstructor for RAID-5: rebuild the failed
// member's blocks by reading the same stripe extent from every survivor
// and XORing (the XOR itself is free in simulation; the I/O is the cost).
func (r5 *RAID5) Reconstruct(dst []Op, op Op, failed int) ([]Op, error) {
	if !op.Read {
		return dst, fmt.Errorf("raid: reconstruct of a write")
	}
	for dev := 0; dev < r5.members; dev++ {
		if dev == failed {
			continue
		}
		dst = append(dst, Op{Dev: dev, LBA: op.LBA, Sectors: op.Sectors, Read: true})
	}
	return dst, nil
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
func (r *RAID10) Plan(dst *Plan, req trace.Request) error {
	if err := checkSpan("RAID10", req, r.total); err != nil {
		return err
	}
	pairs := r.members / 2
	dst.begin(1)
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
			dst.add(0, Op{Dev: dev, LBA: memberLBA, Sectors: int(chunk), Read: true})
		} else {
			dst.add(0, Op{Dev: pair * 2, LBA: memberLBA, Sectors: int(chunk), Read: false})
			dst.add(0, Op{Dev: pair*2 + 1, LBA: memberLBA, Sectors: int(chunk), Read: false})
		}
		lba += chunk
		remaining -= int(chunk)
	}
	return nil
}

// Reconstruct implements Reconstructor: read from the mirror twin.
func (r *RAID10) Reconstruct(dst []Op, op Op, failed int) ([]Op, error) {
	if !op.Read {
		return dst, fmt.Errorf("raid: reconstruct of a write")
	}
	twin := failed ^ 1
	return append(dst, Op{Dev: twin, LBA: op.LBA, Sectors: op.Sectors, Read: true}), nil
}
