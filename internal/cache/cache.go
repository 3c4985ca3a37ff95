// Package cache models a disk drive's on-board (buffer) cache the way
// drive firmware implements it: a small set of segments, each holding one
// contiguous run of sectors, managed LRU. Read misses fill a segment with
// the requested run plus a read-ahead extension, which is what makes
// sequential streams (e.g. the TPC-H scans of the paper) hit in cache.
// Writes are modeled write-through — the paper's latency results all
// require media access for writes — but written data is retained in the
// cache for subsequent reads.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// Config sizes the cache.
type Config struct {
	SizeBytes        int64 // total cache capacity (0 disables the cache)
	SectorBytes      int
	Segments         int // segment count (typical firmware uses 8-32)
	ReadAheadSectors int // extra sectors fetched past each read miss
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes < 0:
		return errors.New("cache: SizeBytes must be nonnegative")
	case c.SectorBytes <= 0:
		return errors.New("cache: SectorBytes must be positive")
	case c.SizeBytes > 0 && c.Segments <= 0:
		return errors.New("cache: Segments must be positive for a nonzero cache")
	case c.ReadAheadSectors < 0:
		return errors.New("cache: ReadAheadSectors must be nonnegative")
	}
	return nil
}

type segment struct {
	start int64 // first cached sector
	count int64 // cached run length in sectors (0 = free)
	used  uint64

	// prev and next link the live segments into the LRU list by index
	// (-1 ends it); a free segment is on no list.
	prev, next int32
}

// sumSlots is the size of the bucket summary's hash table, 2^sumBits.
const (
	sumBits  = 7
	sumSlots = 1 << sumBits
)

// sumFull is a summary count that has saturated: it stays set, so its
// slot never rejects a lookup. Only a cache of more than 127 segments
// can reach it.
const sumFull = 255

// Cache is a segmented LRU disk buffer. The zero value is an always-miss
// cache; construct with New for a real one.
//
// Two indexes over the segments keep a request's work independent of
// the segment count. The summary splits the LBA space into buckets of
// 1<<shift sectors, at least one segment long, so a segment touches at
// most two; sum counts, per hashed slot, the live segments touching a
// bucket there. A lookup whose bucket's slot is zero is a miss. The LRU
// list links the live segments in ascending used order: stamps are
// distinct clock ticks, so its head is the segment insert's scan would
// pick once no segment is free.
type Cache struct {
	cfg        Config
	segSectors int64
	segs       []segment
	clock      uint64

	hits      uint64
	misses    uint64
	writeHits uint64 // writes fully absorbed within an existing segment

	head, tail int32 // LRU list ends (-1 when empty)
	live       int32 // segments on the LRU list
	shift      uint8
	sum        [sumSlots]uint8
}

// New builds a cache. A zero SizeBytes yields a cache that never hits.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, head: -1, tail: -1}
	if cfg.SizeBytes == 0 {
		return c, nil
	}
	c.segSectors = cfg.SizeBytes / int64(cfg.SectorBytes) / int64(cfg.Segments)
	if c.segSectors < 1 {
		return nil, fmt.Errorf("cache: %d bytes across %d segments leaves empty segments",
			cfg.SizeBytes, cfg.Segments)
	}
	c.shift = uint8(bits.Len64(uint64(c.segSectors - 1)))
	c.segs = make([]segment, cfg.Segments)
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SegmentSectors reports the per-segment capacity in sectors.
func (c *Cache) SegmentSectors() int64 { return c.segSectors }

// Lookup reports whether a read of [lba, lba+sectors) is fully satisfied
// by the cache, updating hit/miss statistics and LRU state.
func (c *Cache) Lookup(lba int64, sectors int) bool {
	if c.segSectors == 0 || sectors <= 0 || c.sum[slot(lba>>c.shift)] == 0 {
		c.misses++
		return false
	}
	end := lba + int64(sectors)
	for i := range c.segs {
		s := &c.segs[i]
		if s.count > 0 && lba >= s.start && end <= s.start+s.count {
			c.refresh(int32(i))
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// InsertRead caches the data staged by a read miss of [lba, lba+sectors),
// extended by the configured read-ahead and truncated to the segment
// size. When the run exceeds a segment, the tail is kept (the freshest
// data for a sequential stream).
func (c *Cache) InsertRead(lba int64, sectors int) {
	c.insert(lba, int64(sectors)+int64(c.cfg.ReadAheadSectors))
}

// InsertWrite retains just-written sectors for future reads. Overlapping
// stale segments are invalidated so a later read cannot observe evicted
// contents as a hit.
//
// A write entirely inside an existing segment refreshes the first such
// segment in place: firmware updates the buffered copy rather than
// reallocating. Every *other* segment overlapping the written range
// (read-ahead inserts can leave overlapping runs, so a second segment
// may hold the whole write too) still holds the pre-write data and is
// trimmed, or a later read could hit it. A write no segment held
// replaces insert's victim, chosen after the trims. The overlap pass
// runs only when the summary shows a live segment in a bucket the write
// touches.
func (c *Cache) InsertWrite(lba int64, sectors int) {
	if c.segSectors == 0 || sectors <= 0 {
		return
	}
	end := lba + int64(sectors)
	if c.occupied(lba, end) {
		keep := -1
		for i := range c.segs {
			s := &c.segs[i]
			if sEnd := s.start + s.count; s.count > 0 && end > s.start && lba < sEnd {
				if keep < 0 && lba >= s.start && end <= sEnd {
					keep = i
					continue
				}
				c.trim(int32(i), lba, end, sEnd)
			}
		}
		if keep >= 0 {
			c.refresh(int32(keep))
			c.writeHits++
			return
		}
	}
	c.place(c.victim(), lba, int64(sectors))
}

// occupied reports whether the summary shows a live segment in a bucket
// that [lba, end) touches. A write spanning more buckets than the table
// has slots reports true without looking.
func (c *Cache) occupied(lba, end int64) bool {
	first, last := lba>>c.shift, (end-1)>>c.shift
	if uint64(last-first) >= sumSlots {
		return true
	}
	for b := first; b <= last; b++ {
		if c.sum[slot(b)] != 0 {
			return true
		}
	}
	return false
}

// insert places a run starting at lba into the LRU victim segment.
func (c *Cache) insert(lba, run int64) {
	if c.segSectors == 0 || run <= 0 {
		return
	}
	c.place(c.victim(), lba, run)
}

// victim picks the segment an insert replaces: the first free segment
// after segment 0, else segment 0 if it is free, else the least
// recently used, which heads the LRU list. (A free segment 0 losing to
// a later free one is a quirk kept from the original LRU scan.)
func (c *Cache) victim() int32 {
	if int(c.live) == len(c.segs) {
		return c.head
	}
	for i := 1; i < len(c.segs); i++ {
		if c.segs[i].count == 0 {
			return int32(i)
		}
	}
	return 0
}

// place overwrites segment v with a run starting at lba, keeping the
// tail of a run longer than a segment.
func (c *Cache) place(v int32, lba, run int64) {
	if run > c.segSectors {
		lba += run - c.segSectors
		run = c.segSectors
	}
	s := &c.segs[v]
	if s.count > 0 {
		c.summarize(s, -1)
		c.unlink(v)
	}
	c.clock++
	s.start, s.count, s.used = lba, run, c.clock
	c.summarize(s, 1)
	c.link(v)
}

// trim drops or trims segment i, which ends at sEnd, to exclude the
// overlapping range [lba, end).
func (c *Cache) trim(i int32, lba, end, sEnd int64) {
	s := &c.segs[i]
	c.summarize(s, -1)
	switch {
	case lba <= s.start && end >= sEnd:
		s.count = 0 // fully covered: drop
		c.unlink(i)
		return
	case lba <= s.start:
		// Overlap at the front: keep the tail.
		s.count = sEnd - end
		s.start = end
	default:
		// Overlap at the back, or a write strictly inside: keep the
		// head (a single-run segment cannot represent a hole).
		s.count = lba - s.start
	}
	c.summarize(s, 1)
}

// summarize adds d to the summary count of each bucket live segment s
// touches: 1 to add it, -1 to remove it. A saturated count stays
// saturated.
func (c *Cache) summarize(s *segment, d int8) {
	first, last := s.start>>c.shift, (s.start+s.count-1)>>c.shift
	c.bump(slot(first), d)
	if last != first {
		c.bump(slot(last), d)
	}
}

func (c *Cache) bump(k int, d int8) {
	if c.sum[k] != sumFull {
		c.sum[k] += uint8(d)
	}
}

// slot hashes bucket b into the summary table: Fibonacci hashing, a
// multiply by 2^64 divided by the golden ratio, keeping the top bits.
func slot(b int64) int {
	return int(uint64(b) * 0x9E3779B97F4A7C15 >> (64 - sumBits))
}

// refresh stamps live segment i with a fresh tick and moves it to the
// LRU list's tail.
func (c *Cache) refresh(i int32) {
	c.clock++
	c.segs[i].used = c.clock
	if c.tail != i {
		c.unlink(i)
		c.link(i)
	}
}

// link appends segment i to the LRU list.
func (c *Cache) link(i int32) {
	s := &c.segs[i]
	s.prev, s.next = c.tail, -1
	if c.tail >= 0 {
		c.segs[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
	c.live++
}

// unlink removes segment i from the LRU list.
func (c *Cache) unlink(i int32) {
	s := &c.segs[i]
	if s.prev >= 0 {
		c.segs[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.segs[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	c.live--
}

// Stats reports hit/miss counters since construction.
func (c *Cache) Stats() (hits, misses, writeHits uint64) {
	return c.hits, c.misses, c.writeHits
}

// HitRate reports the read hit rate in [0,1]; zero when no lookups ran.
func (c *Cache) HitRate() float64 {
	tot := c.hits + c.misses
	if tot == 0 {
		return 0
	}
	return float64(c.hits) / float64(tot)
}
