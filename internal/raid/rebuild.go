package raid

import (
	"fmt"

	"repro/internal/trace"
)

// MemberSizer is implemented by layouts that know how much of each
// member disk they occupy (used to bound a rebuild sweep).
type MemberSizer interface {
	// MemberExtent reports the per-member used extent in sectors.
	MemberExtent() int64
}

// MemberExtent implements MemberSizer for RAID-0: whole stripe units
// per member, or the whole member of a one-member set.
func (r0 *RAID0) MemberExtent() int64 { return r0.total / int64(r0.members) }

// MemberExtent implements MemberSizer for RAID-1.
func (r1 *RAID1) MemberExtent() int64 { return r1.memberCap }

// MemberExtent implements MemberSizer for RAID-5.
func (r5 *RAID5) MemberExtent() int64 { return r5.rows * r5.stripeUnit }

// Rebuild streams a failed member's contents onto its replacement disk:
// chunk by chunk, it reads the reconstruction set from the survivors and
// writes the rebuilt data to the replaced member, keeping up to `depth`
// chunks in flight. Foreground traffic keeps flowing (and keeps being
// served degraded) while the rebuild runs; when the sweep finishes the
// member returns to service and onDone receives the copied sector count.
//
// The caller drives the simulation engine; Rebuild only issues I/O.
func (a *Array) Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error {
	if dev < 0 || dev >= len(a.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", dev, len(a.members))
	}
	if !a.failed[dev] {
		return fmt.Errorf("raid: member %d is not failed", dev)
	}
	if chunkSectors <= 0 {
		return fmt.Errorf("raid: chunk %d must be positive", chunkSectors)
	}
	if depth <= 0 {
		return fmt.Errorf("raid: depth %d must be positive", depth)
	}
	rec, ok := a.layout.(Reconstructor)
	if !ok {
		return fmt.Errorf("raid: %s cannot reconstruct", a.layout.Name())
	}
	extent := a.members[dev].Capacity()
	if sizer, ok := a.layout.(MemberSizer); ok {
		extent = sizer.MemberExtent()
	}

	var (
		cursor   int64
		inflight int
		copied   int64
		issue    func()
	)
	finished := false
	finish := func() {
		if finished {
			return // a synchronous member completion already finished the sweep
		}
		finished = true
		a.failed[dev] = false
		if onDone != nil {
			onDone(copied)
		}
	}
	issue = func() {
		for inflight < depth && cursor < extent {
			start := cursor
			n := chunkSectors
			if start+n > extent {
				n = extent - start
			}
			cursor += n
			inflight++

			ops, err := rec.Reconstruct(Op{Dev: dev, LBA: start, Sectors: int(n), Read: true}, dev)
			if err != nil {
				panic(err) // layout contract violation: a simulator bug
			}
			// Survivor reads complete: write the rebuilt chunk to the
			// replacement disk. This bypasses the degraded-write drop:
			// the replacement is physically present and being refilled.
			writeChunk := func() {
				a.members[dev].Submit(
					trace.Request{LBA: start, Sectors: int(n), Read: false},
					func(float64) {
						copied += n
						inflight--
						if cursor < extent {
							issue()
						} else if inflight == 0 {
							finish()
						}
					})
			}
			if len(ops) == 0 {
				// Nothing to read from the survivors (a layout may derive
				// the chunk without I/O): go straight to the write, or the
				// chunk would stay in flight forever and the member would
				// never return to service.
				writeChunk()
				continue
			}
			outstanding := len(ops)
			for _, op := range ops {
				a.members[op.Dev].Submit(trace.Request{LBA: op.LBA, Sectors: op.Sectors, Read: true},
					func(float64) {
						outstanding--
						if outstanding != 0 {
							return
						}
						writeChunk()
					})
			}
		}
	}
	issue()
	// A zero-sector extent issues no I/O at all: the sweep is trivially
	// complete, so the member returns to service and onDone fires now —
	// the issue loop alone would exit with inflight == 0 and leave the
	// member marked failed forever.
	if inflight == 0 && cursor >= extent {
		finish()
	}
	return nil
}

// Rebuild streams a failed member's contents onto its replacement over
// the member links: survivor reads and reconstruction writes are
// ordinary cross-LP sends through the same FIFO reservations foreground
// traffic uses, so rebuild I/O queues behind (and delays) concurrent
// requests exactly as it would on real hardware — and the conservative
// windows plus (at, src LP, src seq) merge order keep a degraded run as
// deterministic as a healthy one. All sweep state (cursor, inflight,
// copied) lives in controller-LP closures; must be called from a
// controller-LP event, which is where an injector bound to Controller()
// runs. Semantics otherwise mirror Array.Rebuild.
func (p *Partitioned) Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error {
	if dev < 0 || dev >= len(p.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", dev, len(p.members))
	}
	if !p.failed[dev] {
		return fmt.Errorf("raid: member %d is not failed", dev)
	}
	if chunkSectors <= 0 {
		return fmt.Errorf("raid: chunk %d must be positive", chunkSectors)
	}
	if depth <= 0 {
		return fmt.Errorf("raid: depth %d must be positive", depth)
	}
	rec, ok := p.layout.(Reconstructor)
	if !ok {
		return fmt.Errorf("raid: %s cannot reconstruct", p.layout.Name())
	}
	extent := p.members[dev].Capacity()
	if sizer, ok := p.layout.(MemberSizer); ok {
		extent = sizer.MemberExtent()
	}

	var (
		cursor   int64
		inflight int
		copied   int64
		issue    func()
	)
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		p.failed[dev] = false
		if onDone != nil {
			onDone(copied)
		}
	}
	issue = func() {
		for inflight < depth && cursor < extent {
			start := cursor
			n := chunkSectors
			if start+n > extent {
				n = extent - start
			}
			cursor += n
			inflight++

			ops, err := rec.Reconstruct(Op{Dev: dev, LBA: start, Sectors: int(n), Read: true}, dev)
			if err != nil {
				panic(err) // layout contract violation: a simulator bug
			}
			// Survivor reads complete: ship the rebuilt chunk across the
			// replacement's link. issueOp does not apply the degraded
			// rewrite, so the write lands even though the member is still
			// marked failed — the replacement is physically present and
			// being refilled.
			writeChunk := func() {
				p.issueOp(Op{Dev: dev, LBA: start, Sectors: int(n), Read: false}, func(float64) {
					copied += n
					inflight--
					if cursor < extent {
						issue()
					} else if inflight == 0 {
						finish()
					}
				})
			}
			if len(ops) == 0 {
				// Nothing to read from the survivors: go straight to the
				// write, or the chunk would stay in flight forever.
				writeChunk()
				continue
			}
			outstanding := len(ops)
			for _, op := range ops {
				p.issueOp(op, func(float64) {
					outstanding--
					if outstanding != 0 {
						return
					}
					writeChunk()
				})
			}
		}
	}
	issue()
	// A zero-sector extent issues no I/O at all: finish now, or the
	// member would stay marked failed forever.
	if inflight == 0 && cursor >= extent {
		finish()
	}
	return nil
}
