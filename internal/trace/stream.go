package trace

import "fmt"

// Stream is a sequential source of requests in arrival order. Generator
// implements it (synthesis without materialization), Reader implements
// it for trace files, and RemapStream layers the MD→HC-SD address
// migration on any stream.
type Stream interface {
	// Next yields the stream's following request; ok is false when the
	// stream is exhausted.
	Next() (r Request, ok bool)
}

var _ Stream = (*Generator)(nil)

// Err reports the terminal error of a stream, if it has one. Streams
// backed by parsers or validators (Reader, remapStream) expose an
// Err() method that is non-nil after Next returned false because of a
// failure rather than exhaustion; plain streams (generators) cannot
// fail and report nil. Every consumer that drains a stream of
// unvetted origin must check Err afterwards.
func Err(s Stream) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// Len reports how many more requests s will yield, or -1 when s cannot
// tell. Streams that know their length in advance (the generators, and
// the remap and bound layers over them) expose a Len() method; a file
// Reader does not, since it learns its length only by reading. A replay
// sizes its per-request samples from Len once instead of growing them.
func Len(s Stream) int {
	if ls, ok := s.(interface{ Len() int }); ok {
		return ls.Len()
	}
	return -1
}

// remapStream applies the MD→HC-SD address migration on the fly.
type remapStream struct {
	s       Stream
	offsets []int64
	n       int
	err     error
	done    bool
}

func (s *remapStream) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	r, ok := s.s.Next()
	if !ok {
		s.done = true
		return Request{}, false
	}
	if r.Disk >= len(s.offsets) {
		s.err = fmt.Errorf("trace: request %d targets disk %d but only %d offsets given",
			s.n, r.Disk, len(s.offsets))
		s.done = true
		return Request{}, false
	}
	s.n++
	r.LBA += s.offsets[r.Disk]
	r.Disk = 0
	return r, true
}

// Len forwards the inner stream's length (see the package-level Len):
// every request it yields is remapped or ends the stream, which then
// reports 0.
func (s *remapStream) Len() int {
	if s.done {
		return 0
	}
	return Len(s.s)
}

// Err reports why the stream terminated early: an unroutable request,
// or the inner stream's own failure.
func (s *remapStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return Err(s.s)
}

// RemapStream retargets every request of s to a single disk (disk 0) at
// LBA offset[r.Disk]+r.LBA. This implements the paper's MD→HC-SD
// migration layout: the high-capacity drive is sequentially populated
// with each original disk's data in disk order. A request
// targeting a disk beyond the offset table ends the stream with an
// error (see Err) — foreign traces reach this boundary, so it must not
// crash the process.
func RemapStream(s Stream, offsets []int64) Stream {
	return &remapStream{s: s, offsets: offsets}
}

// boundStream checks every request against the system it will replay on.
type boundStream struct {
	s        Stream
	disks    int
	capacity int64
	n        int
	err      error
}

func (s *boundStream) Next() (Request, bool) {
	if s.err != nil {
		return Request{}, false
	}
	r, ok := s.s.Next()
	if !ok {
		return Request{}, false
	}
	switch {
	case r.Disk >= s.disks:
		s.err = fmt.Errorf("trace: request %d: Disk %d outside the %d-disk array", s.n, r.Disk, s.disks)
	case r.LBA > s.capacity-int64(r.Sectors):
		s.err = fmt.Errorf("trace: request %d: LBA %d + Sectors %d ends past the %d sectors of disk %d",
			s.n, r.LBA, r.Sectors, s.capacity, r.Disk)
	}
	if s.err != nil {
		return Request{}, false
	}
	s.n++
	return r, true
}

// Len forwards the inner stream's length, and reports 0 once a request
// that did not fit has ended the stream.
func (s *boundStream) Len() int {
	if s.err != nil {
		return 0
	}
	return Len(s.s)
}

// Err reports the first request that did not fit, or the inner
// stream's own failure.
func (s *boundStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return Err(s.s)
}

// BoundStream passes s through unchanged until a request targets a disk
// at or past disks, or reaches past capacity sectors on its disk; that
// request ends the stream with an error naming its index (0-based) and
// the offending field (see Err). Foreign traces replay through this
// boundary, so a request that does not fit the target system fails the
// run instead of panicking a device or aliasing into a neighbor's
// address range.
func BoundStream(s Stream, disks int, capacity int64) Stream {
	return &boundStream{s: s, disks: disks, capacity: capacity}
}
