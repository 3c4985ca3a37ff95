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
}

// Cache is a segmented LRU disk buffer. The zero value is an always-miss
// cache; construct with New for a real one.
type Cache struct {
	cfg        Config
	segSectors int64
	segs       []segment
	clock      uint64

	hits      uint64
	misses    uint64
	writeHits uint64 // writes fully absorbed within an existing segment
}

// New builds a cache. A zero SizeBytes yields a cache that never hits.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	if cfg.SizeBytes == 0 {
		return c, nil
	}
	c.segSectors = cfg.SizeBytes / int64(cfg.SectorBytes) / int64(cfg.Segments)
	if c.segSectors < 1 {
		return nil, fmt.Errorf("cache: %d bytes across %d segments leaves empty segments",
			cfg.SizeBytes, cfg.Segments)
	}
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
	if c.segSectors == 0 || sectors <= 0 {
		c.misses++
		return false
	}
	end := lba + int64(sectors)
	for i := range c.segs {
		s := &c.segs[i]
		if s.count > 0 && lba >= s.start && end <= s.start+s.count {
			c.clock++
			s.used = c.clock
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
// It makes one pass over the segments. A write entirely inside an
// existing segment refreshes the first such segment in place: firmware
// updates the buffered copy rather than reallocating. Every *other*
// segment overlapping the written range (read-ahead inserts can leave
// overlapping runs, so a second segment may hold the whole write too)
// still holds the pre-write data and is trimmed, or a later read could
// hit it. The same pass tracks insert's LRU victim over the trimmed
// segments, which the write replaces when no segment held it.
func (c *Cache) InsertWrite(lba int64, sectors int) {
	if c.segSectors == 0 || sectors <= 0 {
		return
	}
	end := lba + int64(sectors)
	keep, v, free := -1, 0, false
	for i := range c.segs {
		s := &c.segs[i]
		if sEnd := s.start + s.count; s.count > 0 && end > s.start && lba < sEnd {
			if keep < 0 && lba >= s.start && end <= sEnd {
				keep = i
				continue
			}
			trim(s, lba, end, sEnd)
		}
		// insert's victim rule, applied to the trimmed segment.
		if i > 0 && !free {
			if s.count == 0 {
				v, free = i, true
			} else if s.used < c.segs[v].used && c.segs[v].count != 0 {
				v = i
			}
		}
	}
	if keep >= 0 {
		c.clock++
		c.segs[keep].used = c.clock
		c.writeHits++
		return
	}
	c.place(v, lba, int64(sectors))
}

// insert places a run starting at lba into the LRU victim segment.
func (c *Cache) insert(lba, run int64) {
	if c.segSectors == 0 || run <= 0 {
		return
	}
	v := 0
	for i := 1; i < len(c.segs); i++ {
		if c.segs[i].count == 0 {
			v = i
			break
		}
		if c.segs[i].used < c.segs[v].used && c.segs[v].count != 0 {
			v = i
		}
	}
	c.place(v, lba, run)
}

// place overwrites segment v with a run starting at lba, keeping the
// tail of a run longer than a segment.
func (c *Cache) place(v int, lba, run int64) {
	if run > c.segSectors {
		lba += run - c.segSectors
		run = c.segSectors
	}
	c.clock++
	c.segs[v] = segment{start: lba, count: run, used: c.clock}
}

// trim drops or trims segment s, which ends at sEnd, to exclude the
// overlapping range [lba, end).
func trim(s *segment, lba, end, sEnd int64) {
	switch {
	case lba <= s.start && end >= sEnd:
		s.count = 0 // fully covered: drop
	case lba <= s.start:
		// Overlap at the front: keep the tail.
		s.count = sEnd - end
		s.start = end
	default:
		// Overlap at the back, or a write strictly inside: keep the
		// head (a single-run segment cannot represent a hole).
		s.count = lba - s.start
	}
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
