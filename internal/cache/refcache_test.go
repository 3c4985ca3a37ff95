package cache

// refCache is the segmented LRU cache as it stood before InsertWrite
// became one pass over the segments, kept verbatim (identifiers renamed)
// as the differential reference for the live Cache: the same segments,
// counters and Lookup answers after every operation.

import (
	"fmt"
	"math/rand"
	"testing"
)

type refSegment struct {
	start int64 // first cached sector
	count int64 // cached run length in sectors (0 = free)
	used  uint64
}

// refCache is a segmented LRU disk buffer. The zero value is an always-miss
// cache; construct with newRefCache for a real one.
type refCache struct {
	cfg        Config
	segSectors int64
	segs       []refSegment
	clock      uint64

	hits      uint64
	misses    uint64
	writeHits uint64 // writes fully absorbed within an existing refSegment
}

// newRefCache builds a cache. A zero SizeBytes yields a cache that never hits.
func newRefCache(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &refCache{cfg: cfg}
	if cfg.SizeBytes == 0 {
		return c, nil
	}
	c.segSectors = cfg.SizeBytes / int64(cfg.SectorBytes) / int64(cfg.Segments)
	if c.segSectors < 1 {
		return nil, fmt.Errorf("cache: %d bytes across %d segments leaves empty segments",
			cfg.SizeBytes, cfg.Segments)
	}
	c.segs = make([]refSegment, cfg.Segments)
	return c, nil
}

// Config returns the cache configuration.
func (c *refCache) Config() Config { return c.cfg }

// SegmentSectors reports the per-refSegment capacity in sectors.
func (c *refCache) SegmentSectors() int64 { return c.segSectors }

// Lookup reports whether a read of [lba, lba+sectors) is fully satisfied
// by the cache, updating hit/miss statistics and LRU state.
func (c *refCache) Lookup(lba int64, sectors int) bool {
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
// extended by the configured read-ahead and truncated to the refSegment
// size. When the run exceeds a refSegment, the tail is kept (the freshest
// data for a sequential stream).
func (c *refCache) InsertRead(lba int64, sectors int) {
	c.insert(lba, int64(sectors)+int64(c.cfg.ReadAheadSectors))
}

// InsertWrite retains just-written sectors for future reads. Overlapping
// stale segments are invalidated so a later read cannot observe evicted
// contents as a hit.
func (c *refCache) InsertWrite(lba int64, sectors int) {
	if c.segSectors == 0 || sectors <= 0 {
		return
	}
	end := lba + int64(sectors)
	// A write entirely inside one existing refSegment refreshes it in place:
	// firmware updates the buffered copy rather than reallocating. Any
	// *other* refSegment overlapping the written range (read-ahead inserts
	// can leave overlapping runs) still holds the pre-write data, so it
	// must be invalidated before the return or a later read could hit it.
	for i := range c.segs {
		s := &c.segs[i]
		if s.count > 0 && lba >= s.start && end <= s.start+s.count {
			c.invalidateOverlapsExcept(lba, end, i)
			c.clock++
			s.used = c.clock
			c.writeHits++
			return
		}
	}
	c.invalidateOverlaps(lba, end)
	c.insert(lba, int64(sectors))
}

// insert places a run starting at lba into the LRU victim refSegment.
func (c *refCache) insert(lba, run int64) {
	if c.segSectors == 0 || run <= 0 {
		return
	}
	if run > c.segSectors {
		// Keep the tail of the run.
		lba += run - c.segSectors
		run = c.segSectors
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
	c.clock++
	c.segs[v] = refSegment{start: lba, count: run, used: c.clock}
}

// invalidateOverlaps drops or trims segments overlapping [lba, end).
func (c *refCache) invalidateOverlaps(lba, end int64) {
	c.invalidateOverlapsExcept(lba, end, -1)
}

// invalidateOverlapsExcept drops or trims segments overlapping
// [lba, end), leaving refSegment `keep` (-1 keeps none) untouched.
func (c *refCache) invalidateOverlapsExcept(lba, end int64, keep int) {
	for i := range c.segs {
		s := &c.segs[i]
		if i == keep || s.count == 0 {
			continue
		}
		sEnd := s.start + s.count
		if end <= s.start || lba >= sEnd {
			continue // no overlap
		}
		switch {
		case lba <= s.start && end >= sEnd:
			s.count = 0 // fully covered: drop
		case lba <= s.start:
			// Overlap at the front: keep the tail.
			s.count = sEnd - end
			s.start = end
		case end >= sEnd:
			// Overlap at the back: keep the head.
			s.count = lba - s.start
		default:
			// Write strictly inside: keep the head (a single-run refSegment
			// cannot represent a hole).
			s.count = lba - s.start
		}
	}
}

// Stats reports hit/miss counters since construction.
func (c *refCache) Stats() (hits, misses, writeHits uint64) {
	return c.hits, c.misses, c.writeHits
}

// HitRate reports the read hit rate in [0,1]; zero when no lookups ran.
func (c *refCache) HitRate() float64 {
	tot := c.hits + c.misses
	if tot == 0 {
		return 0
	}
	return float64(c.hits) / float64(tot)
}

// cacheOp is one operation of a differential run.
type cacheOp struct {
	kind    int // 0 Lookup, 1 InsertRead, 2 InsertWrite
	lba     int64
	sectors int
}

// matchReference applies ops to a Cache and a refCache built from cfg
// and fails at the first operation after which they differ: in the
// Lookup answer, any segment's start, count or LRU stamp, the clock, or
// the hit, miss and write-hit counters.
func matchReference(t testing.TB, cfg Config, ops []cacheOp) {
	t.Helper()
	got, err := New(cfg)
	want, refErr := newRefCache(cfg)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%+v: New error %v, reference %v", cfg, err, refErr)
	}
	if err != nil {
		return
	}
	for n, op := range ops {
		var g, w bool
		switch op.kind {
		case 0:
			g, w = got.Lookup(op.lba, op.sectors), want.Lookup(op.lba, op.sectors)
		case 1:
			got.InsertRead(op.lba, op.sectors)
			want.InsertRead(op.lba, op.sectors)
		default:
			got.InsertWrite(op.lba, op.sectors)
			want.InsertWrite(op.lba, op.sectors)
		}
		if g != w || !sameState(got, want) {
			t.Fatalf("%+v: after op %d %+v: lookup %v, reference %v\nsegments %+v clock %d\nreference %+v clock %d",
				cfg, n, op, g, w, got.segs, got.clock, want.segs, want.clock)
		}
	}
}

func sameState(c *Cache, r *refCache) bool {
	if len(c.segs) != len(r.segs) || c.clock != r.clock ||
		c.hits != r.hits || c.misses != r.misses || c.writeHits != r.writeHits {
		return false
	}
	for i, s := range c.segs {
		if q := r.segs[i]; s.start != q.start || s.count != q.count || s.used != q.used {
			return false
		}
	}
	return indexesMatch(c)
}

// TestCacheMatchesReference drives the cache and its pre-one-pass
// reference through random mixes of reads, read-ahead inserts and
// writes over a narrow LBA range, so runs overlap, nest, coincide and
// fully cover each other. Segment counts run 1-24 (including the
// 16-segment drives), segments 1-96 sectors, read-ahead 0-80 sectors,
// and request sizes include 0, negative, and longer than a segment.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for c := 0; c < 400; c++ {
		segs := 1 + rng.Intn(24)
		segSectors := 1 + rng.Intn(96)
		cfg := Config{
			SizeBytes:        int64(segs*segSectors*512 + rng.Intn(512*segs)),
			SectorBytes:      512,
			Segments:         segs,
			ReadAheadSectors: rng.Intn(81),
		}
		if c%50 == 0 {
			cfg.SizeBytes = 0
		}
		span := int64(1 + rng.Intn(4*segs*segSectors))
		ops := make([]cacheOp, 2000)
		for i := range ops {
			ops[i] = cacheOp{
				kind:    rng.Intn(3),
				lba:     rng.Int63n(span),
				sectors: rng.Intn(2*segSectors+2) - 1,
			}
		}
		matchReference(t, cfg, ops)
	}
}

// FuzzCacheMatchesReference decodes a cache configuration from the
// first three bytes and an operation from every three bytes after them,
// then requires the cache to match its reference after each operation.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{3, 15, 8, 1, 0, 9, 2, 4, 6, 0, 3, 2, 2, 1, 40, 0, 0, 5})
	f.Add([]byte{15, 63, 32, 2, 10, 20, 2, 12, 4, 1, 0, 30, 0, 14, 3, 2, 0, 60, 0, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		segs := 1 + int(data[0]%24)
		segSectors := 1 + int(data[1]%96)
		cfg := Config{
			SizeBytes:        int64(segs * segSectors * 512),
			SectorBytes:      512,
			Segments:         segs,
			ReadAheadSectors: int(data[2] % 81),
		}
		var ops []cacheOp
		for b := data[3:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, cacheOp{
				kind:    int(b[0] % 3),
				lba:     int64(b[1]),
				sectors: int(b[2]%128) - 1,
			})
		}
		matchReference(t, cfg, ops)
	})
}
