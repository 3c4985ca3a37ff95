package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{
		SizeBytes:        64 * 1024, // 128 sectors
		SectorBytes:      512,
		Segments:         4, // 32 sectors per segment
		ReadAheadSectors: 8,
	}
}

func mustNew(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: -1, SectorBytes: 512, Segments: 4},
		{SizeBytes: 1024, SectorBytes: 0, Segments: 4},
		{SizeBytes: 1024, SectorBytes: 512, Segments: 0},
		{SizeBytes: 1024, SectorBytes: 512, Segments: 4, ReadAheadSectors: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("accepted invalid config %+v", cfg)
		}
	}
	// Too many segments for the capacity.
	if _, err := New(Config{SizeBytes: 512, SectorBytes: 512, Segments: 4}); err == nil {
		t.Fatalf("accepted config with sub-sector segments")
	}
}

func TestZeroCacheNeverHits(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 0, SectorBytes: 512})
	c.InsertRead(100, 8)
	c.InsertWrite(100, 8)
	if c.Lookup(100, 8) {
		t.Fatalf("zero-size cache reported a hit")
	}
	if c.HitRate() != 0 {
		t.Fatalf("zero-size cache hit rate %v, want 0", c.HitRate())
	}
}

func TestMissThenHitAfterInsert(t *testing.T) {
	c := mustNew(t, smallConfig())
	if c.Lookup(1000, 8) {
		t.Fatalf("cold cache hit")
	}
	c.InsertRead(1000, 8)
	if !c.Lookup(1000, 8) {
		t.Fatalf("miss after InsertRead")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestReadAheadServesSequentialStream(t *testing.T) {
	c := mustNew(t, smallConfig()) // read-ahead 8 sectors
	c.InsertRead(0, 8)             // caches [0,16)
	if !c.Lookup(8, 8) {
		t.Fatalf("read-ahead did not cover the next sequential request")
	}
	if c.Lookup(16, 8) {
		t.Fatalf("hit beyond the read-ahead window")
	}
}

func TestPartialOverlapIsMiss(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertRead(100, 8) // caches [100,116)
	if c.Lookup(110, 8) {
		t.Fatalf("request extending past the cached run reported as hit")
	}
	if c.Lookup(96, 8) {
		t.Fatalf("request starting before the cached run reported as hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, smallConfig()) // 4 segments
	base := []int64{0, 1000, 2000, 3000}
	for _, lba := range base {
		c.InsertRead(lba, 8)
	}
	// Touch all but the first so segment 0 is the LRU victim.
	for _, lba := range base[1:] {
		if !c.Lookup(lba, 8) {
			t.Fatalf("warm lookup of %d missed", lba)
		}
	}
	c.InsertRead(4000, 8) // evicts the run at 0
	if c.Lookup(0, 8) {
		t.Fatalf("evicted run still hits")
	}
	for _, lba := range append(base[1:], 4000) {
		if !c.Lookup(lba, 8) {
			t.Fatalf("run at %d was wrongly evicted", lba)
		}
	}
}

func TestOversizedRunKeepsTail(t *testing.T) {
	c := mustNew(t, smallConfig()) // 32 sectors per segment
	c.InsertRead(0, 100)           // run of 108 with read-ahead; tail kept
	if c.Lookup(0, 8) {
		t.Fatalf("head of oversized run unexpectedly cached")
	}
	if !c.Lookup(100, 8) {
		t.Fatalf("tail of oversized run not cached")
	}
}

func TestWriteDataIsReadable(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertWrite(500, 8)
	if !c.Lookup(500, 8) {
		t.Fatalf("written sectors not readable from cache")
	}
}

func TestWriteWithinSegmentRefreshes(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertRead(0, 16)   // caches [0,24)
	c.InsertWrite(4, 4)   // inside the cached run
	_, _, wh := c.Stats() //nolint:dogsled
	if wh != 1 {
		t.Fatalf("writeHits = %d, want 1", wh)
	}
	if !c.Lookup(0, 16) {
		t.Fatalf("segment lost after in-place write")
	}
}

func TestWriteInvalidatesOverlaps(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertRead(100, 16) // caches [100,124)
	// A write overlapping the front of the run but starting before it.
	c.InsertWrite(90, 20) // covers [90,110); trims segment to [110,124)
	if !c.Lookup(90, 20) {
		t.Fatalf("fresh write not cached")
	}
	if !c.Lookup(110, 8) {
		t.Fatalf("surviving tail [110,124) not readable")
	}
	if c.Lookup(100, 24) {
		t.Fatalf("lookup spanning trimmed region hit")
	}
}

// Regression: the refresh-in-place path used to return at the first
// segment containing the write without invalidating *other* overlapping
// segments, so a later read could hit a stale overlap.
func TestWriteInPlaceInvalidatesOtherOverlaps(t *testing.T) {
	// 2 segments of 100 sectors, read-ahead 70: two read misses leave
	// overlapping runs.
	c := mustNew(t, Config{
		SizeBytes:        2 * 100 * 512,
		SectorBytes:      512,
		Segments:         2,
		ReadAheadSectors: 70,
	})
	c.InsertRead(0, 30)  // caches [0,100)
	c.InsertRead(80, 30) // caches [80,180): overlaps the first run on [80,100)
	// The write lands inside both runs; [80,180) holds the lower segment
	// index, is scanned first, and is refreshed in place — so the other
	// run's copy of [85,90) is now stale.
	c.InsertWrite(85, 5)
	if _, _, wh := c.Stats(); wh != 1 {
		t.Fatalf("writeHits = %d, want 1 (in-place refresh)", wh)
	}
	if c.Lookup(0, 95) {
		t.Fatalf("read spanning the stale overlap [85,90) hit segment [0,100)")
	}
	if !c.Lookup(0, 80) {
		t.Fatalf("untouched head [0,85) of the stale segment was lost")
	}
	if !c.Lookup(85, 5) {
		t.Fatalf("refreshed segment no longer serves the written range")
	}
}

func TestWriteCoveringSegmentDropsIt(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertRead(200, 4) // caches [200,212) with read-ahead
	c.InsertWrite(190, 30)
	if !c.Lookup(190, 30) {
		t.Fatalf("covering write not cached")
	}
}

func TestHitRate(t *testing.T) {
	c := mustNew(t, smallConfig())
	c.InsertRead(0, 8)
	c.Lookup(0, 8)  // hit
	c.Lookup(64, 8) // miss
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

// Property: a Lookup immediately after InsertRead of the same range hits,
// for any in-range request, and stats never go backwards.
func TestPropertyInsertThenLookupHits(t *testing.T) {
	c := mustNew(t, Config{
		SizeBytes: 8 << 20, SectorBytes: 512, Segments: 16, ReadAheadSectors: 64,
	})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lba := rng.Int63n(1 << 30)
		n := 1 + rng.Intn(256) // well under segment size (1024 sectors)
		c.InsertRead(lba, n)
		return c.Lookup(lba, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any interleaving of inserts and writes, no segment
// overlaps another in a way that double-counts a sector... weaker,
// checkable form: every Lookup that hits is for a range some single
// insert covered, so hits never exceed lookups.
func TestPropertyStatsConsistent(t *testing.T) {
	c := mustNew(t, smallConfig())
	rng := rand.New(rand.NewSource(42))
	lookups := 0
	for i := 0; i < 5000; i++ {
		lba := rng.Int63n(4096)
		n := 1 + rng.Intn(16)
		switch rng.Intn(3) {
		case 0:
			c.InsertRead(lba, n)
		case 1:
			c.InsertWrite(lba, n)
		default:
			c.Lookup(lba, n)
			lookups++
		}
	}
	hits, misses, _ := c.Stats()
	if hits+misses != uint64(lookups) {
		t.Fatalf("hits+misses = %d, want %d lookups", hits+misses, lookups)
	}
}

func BenchmarkLookup(b *testing.B) {
	c := mustNew(b, Config{
		SizeBytes: 8 << 20, SectorBytes: 512, Segments: 16, ReadAheadSectors: 64,
	})
	for i := int64(0); i < 16; i++ {
		c.InsertRead(i*10000, 128)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(int64(i%16)*10000, 64)
	}
}

// BenchmarkInsertWrite times writes into a drive-sized cache (16
// segments, 8 MB, 256 sectors of read-ahead) kept in a realistic state
// by a 2:1 read/write mix. One op is one InsertWrite plus the two reads
// the mix puts before it, each a Lookup and, on a miss, an InsertRead.
// Half the reads continue a sequential stream, whose read-ahead runs
// overlap the writes that land near it.
func BenchmarkInsertWrite(b *testing.B) {
	c := mustNew(b, Config{
		SizeBytes: 8 << 20, SectorBytes: 512, Segments: 16, ReadAheadSectors: 256,
	})
	rng := rand.New(rand.NewSource(1))
	type op struct {
		lba     int64
		sectors int
	}
	ops := make([]op, 3*4096)
	seq := int64(0)
	for i := range ops {
		n := 8 * (1 + rng.Intn(16))
		lba := rng.Int63n(1 << 16)
		if i%3 != 2 && rng.Intn(2) == 0 {
			lba, seq = seq, (seq+int64(n))%(1<<16)
		}
		ops[i] = op{lba, n}
	}
	read := func(o op) {
		if !c.Lookup(o.lba, o.sectors) {
			c.InsertRead(o.lba, o.sectors)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 3 * (i % 4096)
		read(ops[k])
		read(ops[k+1])
		c.InsertWrite(ops[k+2].lba, ops[k+2].sectors)
	}
}
