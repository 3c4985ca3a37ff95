package raid

import "fmt"

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
// Rebuild I/O goes through the array's coupling like foreground I/O, so
// on a linked array it queues behind (and delays) concurrent requests
// on the same links, as it would on real hardware. All sweep state
// (cursor, inflight, copied) is controller state: on a linked array,
// call Rebuild from a controller-LP event, which is where an injector
// bound to eng.LP(0) runs. The caller drives the simulation engine;
// Rebuild only issues I/O.
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

			ops, err := rec.Reconstruct(nil, Op{Dev: dev, LBA: start, Sectors: int(n), Read: true}, dev)
			if err != nil {
				panic(err) // layout contract violation: a simulator bug
			}
			// Survivor reads complete: write the rebuilt chunk to the
			// replacement disk. issueOp applies no degraded rewrite, so
			// the write lands even though the member is still marked
			// failed: the replacement is physically present and being
			// refilled.
			writeChunk := func() {
				a.issueOp(Op{Dev: dev, LBA: start, Sectors: int(n), Read: false}, func(float64) {
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
				a.issueOp(op, func(float64) {
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
