package raid

import (
	"fmt"

	"repro/internal/device"
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

	rb := &rebuild{a: a, rec: rec, dev: dev, chunk: chunkSectors, depth: depth, extent: extent, onDone: onDone}
	rb.issue()
	// A zero-sector extent issues no I/O at all: the sweep is trivially
	// complete, so the member returns to service and onDone fires now —
	// the issue loop alone would exit with inflight == 0 and leave the
	// member marked failed forever.
	if rb.inflight == 0 && rb.cursor >= extent {
		rb.finish()
	}
	return nil
}

// rebuild is one Rebuild sweep's controller state. Its chunk records
// are built on demand and reused, so the sweep allocates at most depth
// of them however many chunks it copies.
type rebuild struct {
	a      *Array
	rec    Reconstructor
	dev    int
	chunk  int64
	depth  int
	extent int64
	onDone func(copiedSectors int64)

	cursor   int64
	inflight int
	copied   int64
	finished bool
	free     []*chunk
}

// chunk is one chunk in flight: its survivor reads (a reused
// Reconstruct destination), then the write to the replacement. Its two
// member callbacks are bound once, when the record is built.
type chunk struct {
	rb          *rebuild
	start, n    int64
	ops         []Op
	outstanding int
	readDone    device.Done // c.finishRead
	writeDone   device.Done // c.finishWrite
}

// finish returns the member to service and reports the copied sectors,
// once.
func (rb *rebuild) finish() {
	if rb.finished {
		return // a synchronous member completion already finished the sweep
	}
	rb.finished = true
	rb.a.failed[rb.dev] = false
	if rb.onDone != nil {
		rb.onDone(rb.copied)
	}
}

// issue starts chunks until depth are in flight or the extent is
// covered.
func (rb *rebuild) issue() {
	for rb.inflight < rb.depth && rb.cursor < rb.extent {
		c := rb.record()
		c.start, c.n = rb.cursor, rb.chunk
		if c.start+c.n > rb.extent {
			c.n = rb.extent - c.start
		}
		rb.cursor += c.n
		rb.inflight++

		var err error
		c.ops, err = rb.rec.Reconstruct(c.ops[:0], Op{Dev: rb.dev, LBA: c.start, Sectors: int(c.n), Read: true}, rb.dev)
		if err != nil {
			panic(err) // layout contract violation: a simulator bug
		}
		if len(c.ops) == 0 {
			// Nothing to read from the survivors (a layout may derive
			// the chunk without I/O): go straight to the write, or the
			// chunk would stay in flight forever and the member would
			// never return to service.
			c.write()
			continue
		}
		// A member that completes synchronously finishes the chunk from
		// the last op's issueOp, which may reuse c; the range has read
		// its last op by then.
		c.outstanding = len(c.ops)
		for _, op := range c.ops {
			rb.a.issueOp(op, c.readDone)
		}
	}
}

// record takes a chunk record off the free list, or builds one.
func (rb *rebuild) record() *chunk {
	if n := len(rb.free); n > 0 {
		c := rb.free[n-1]
		rb.free = rb.free[:n-1]
		return c
	}
	c := &chunk{rb: rb}
	c.readDone = c.finishRead
	c.writeDone = c.finishWrite
	return c
}

// finishRead counts one survivor read back; the last one starts the
// write.
func (c *chunk) finishRead(float64) {
	c.outstanding--
	if c.outstanding == 0 {
		c.write()
	}
}

// write sends the rebuilt chunk to the replacement disk. issueOp
// applies no degraded rewrite, so the write lands even though the
// member is still marked failed: the replacement is physically present
// and being refilled.
func (c *chunk) write() {
	c.rb.a.issueOp(Op{Dev: c.rb.dev, LBA: c.start, Sectors: int(c.n), Read: false}, c.writeDone)
}

// finishWrite retires the chunk: the record goes back on the free list
// before the sweep continues, so the next chunk can reuse it.
func (c *chunk) finishWrite(float64) {
	rb := c.rb
	rb.copied += c.n
	rb.inflight--
	rb.free = append(rb.free, c)
	if rb.cursor < rb.extent {
		rb.issue()
	} else if rb.inflight == 0 {
		rb.finish()
	}
}
