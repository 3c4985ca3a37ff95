package disk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mech"
)

// trackWalkTransferTime is the reference media-transfer walk: one Locate
// per track, adding each track's share of a revolution and a track
// switch at every crossing. Model.TransferTime must reproduce it to the
// bit while calling Locate only once.
func trackWalkTransferTime(m *Model, geo *geom.Geometry, rot *mech.Rotation, lba int64, sectors int) float64 {
	t := 0.0
	cur := lba
	remaining := sectors
	for remaining > 0 {
		l := geo.Locate(cur)
		onTrack := l.SPT - l.Sector
		if onTrack > remaining {
			onTrack = remaining
		}
		t += rot.TransferTime(onTrack, l.SPT)
		remaining -= onTrack
		cur += int64(onTrack)
		if remaining > 0 {
			t += m.TrackSwitchMs
		}
	}
	return t
}

// tinyModel has zones of about a thousand sectors with an odd,
// non-dividing cylinder count, so single requests cross many zones
// cheaply and the last zone is shorter than the rest.
func tinyModel() Model {
	m := BarracudaES()
	m.Name = "test-tiny"
	m.Geom.Platters = 1
	m.Geom.Cylinders = 43
	m.Geom.Zones = 8
	m.Geom.OuterSPT = 97
	m.Geom.InnerSPT = 61
	return m
}

// rebuildChunkSectors is about a 256th of a BarracudaES, the chunk the
// degradation and lpraid scenarios rebuild a member in: the largest
// transfers the simulator issues.
const rebuildChunkSectors = 5_700_000

// transferCase draws one request that fits on the drive, mixing the
// shapes the walk must get right: single sectors, partial and multi-track
// requests, starts just before a zone end, the drive's last tracks,
// requests spanning several zones, and rebuild-chunk sizes.
func transferCase(rng *rand.Rand, geo *geom.Geometry) (int64, int) {
	total := geo.TotalSectors()
	zones := geo.Zones()
	z := zones[rng.Intn(len(zones))]
	spt := int64(z.SPT)
	var lba, n int64
	switch k := rng.Intn(100); {
	case k < 20:
		lba, n = rng.Int63n(total), 1
	case k < 40:
		lba, n = rng.Int63n(total), 1+rng.Int63n(2*spt)
	case k < 60:
		lba, n = rng.Int63n(total), 1+rng.Int63n(64*spt)
	case k < 80:
		lba = z.FirstLBA + z.Sectors - 1 - rng.Int63n(2*spt)
		n = 1 + rng.Int63n(4*spt)
	case k < 90:
		last := int64(zones[len(zones)-1].SPT)
		lba = total - 1 - rng.Int63n(3*last)
		n = total - lba - rng.Int63n(2)
	case k < 96:
		lba = z.FirstLBA + z.Sectors - 1 - rng.Int63n(z.Sectors)
		n = 1 + rng.Int63n(min(3*z.Sectors, 2*rebuildChunkSectors))
	default:
		lba = rng.Int63n(total)
		n = rebuildChunkSectors - 500_000 + rng.Int63n(1_000_000)
	}
	lba = max(lba, 0)
	return lba, int(max(min(n, total-lba), 1))
}

func TestTransferTimeMatchesTrackWalk(t *testing.T) {
	const cases = 20000
	for _, base := range []Model{BarracudaES(), tinyModel()} {
		for _, serp := range []bool{false, true} {
			for _, rpm := range []float64{5200, 7200, 15000} {
				m := base.WithRPM(rpm)
				m.Geom.Serpentine = serp
				t.Run(fmt.Sprintf("%s/serpentine=%v", m.Name, serp), func(t *testing.T) {
					geo, err := geom.New(m.Geom)
					if err != nil {
						t.Fatal(err)
					}
					rot, err := mech.NewRotation(m.RPM)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(rpm)))
					for i := 0; i < cases; i++ {
						lba, n := transferCase(rng, geo)
						got := m.TransferTime(geo, rot, lba, n)
						want := trackWalkTransferTime(&m, geo, rot, lba, n)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("lba %d sectors %d: got %v (%#x), track walk %v (%#x)",
								lba, n, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				})
			}
		}
	}
}

// TestTransferTimePastEndPanics pins that a transfer running off the
// end of the drive panics like the track-by-track walk does, instead of
// reading past the zone table.
func TestTransferTimePastEndPanics(t *testing.T) {
	m := tinyModel()
	geo, err := geom.New(m.Geom)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := mech.NewRotation(m.RPM)
	if err != nil {
		t.Fatal(err)
	}
	total := geo.TotalSectors()
	for _, lba := range []int64{0, total - 200, total - 1} {
		n := int(total - lba)
		if got, want := m.TransferTime(geo, rot, lba, n), trackWalkTransferTime(&m, geo, rot, lba, n); got != want {
			t.Fatalf("lba %d to the end: got %v, want %v", lba, got, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lba %d, %d sectors (one past the end) did not panic", lba, n+1)
				}
			}()
			m.TransferTime(geo, rot, lba, n+1)
		}()
	}
}

var transferSink float64

// BenchmarkTransferTime times one media-transfer walk on the BarracudaES
// for a one-track request, a 64-track request and a rebuild chunk, at
// random starting blocks.
func BenchmarkTransferTime(b *testing.B) {
	m := BarracudaES()
	geo, err := geom.New(m.Geom)
	if err != nil {
		b.Fatal(err)
	}
	rot, err := mech.NewRotation(m.RPM)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		sectors int
	}{
		{"1-track", m.Geom.OuterSPT},
		{"64-track", 64 * m.Geom.OuterSPT},
		{"rebuild-chunk", rebuildChunkSectors},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var lbas [1024]int64
			for i := range lbas {
				lbas[i] = rng.Int63n(geo.TotalSectors() - int64(bc.sectors))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transferSink += m.TransferTime(geo, rot, lbas[i%len(lbas)], bc.sectors)
			}
		})
	}
}

// plainRun is trackRun's reference: k iterations of t = (t + sw) + full,
// one rounded addition at a time.
func plainRun(t, sw, full float64, k int64) float64 {
	for ; k > 0; k-- {
		t += sw
		t += full
	}
	return t
}

// TestTrackRunAdversarial pins trackRun to plainRun bit for bit on the
// inputs a binade step can get wrong: ties on the ulp grid, terms below
// half an ulp, a zero switch, sums starting on or just below a binade
// edge, subnormal and overflowing sums, and run lengths from 0 to huge.
func TestTrackRunAdversarial(t *testing.T) {
	const u10 = 0x1p-42 // the ulp of [1024, 2048)
	below := math.Nextafter
	cases := []struct {
		name        string
		t, sw, full float64
		k           int64
	}{
		{"tie on switch", 1024, 3 * u10 / 2, 0.5, 5000},
		{"tie on full", 1024, 0.25, 7 * u10 / 2, 5000},
		{"ties on both", 1024, u10 / 2, 5 * u10 / 2, 3000},
		{"tie at BarracudaES switch", 2, 0.8, 60000.0 / 7200, 100},
		{"terms below half an ulp", 0x1p40, 1e-5, 1e-4, 1 << 20},
		{"switch below half an ulp", 0x1p40, 1e-5, 60000.0 / 7200, 100000},
		{"just above half an ulp", 1024, u10/2 + u10/4, u10 / 4, 4000},
		{"one ulp below half an ulp", 1024, below(u10/2, 0), 0.5, 5000},
		{"one ulp below half an ulp, on full", 1024, 0.5, below(u10/2, 0), 5000},
		{"zero switch", 3, 0, 60000.0 / 7200, 20000},
		{"zero terms", 5, 0, 0, 1 << 24},
		{"at a power of two", 1024, 0.8, 60000.0 / 7200, 5000},
		{"one ulp below a power of two", below(1024, 0), 0.8, 60000.0 / 7200, 5000},
		{"one ulp below, tiny terms", below(1024, 0), u10 / 4, u10 / 2, 5000},
		{"k = 0", 17, 0.8, 8, 0},
		{"k = 1", 17, 0.8, 8, 1},
		{"k = directRun-1", 17, 0.8, 8, directRun - 1},
		{"k = directRun", 17, 0.8, 8, directRun},
		{"huge k", 60000.0 / 7200, 0.8, 60000.0 / 7200, 1 << 24},
		{"huge k, 15000 RPM", 0.1, 0.8, 60000.0 / 15000, 1 << 24},
		{"from zero", 0, 0.8, 60000.0 / 5200, 10000},
		{"subnormal sums", 0, 0x1p-1074, 0x1p-1060, 1 << 20},
		{"subnormal into normal", 0x1p-1030, 0x1p-1074, 3 * 0x1p-1075, 100000},
		{"overflow to +Inf", 0x1p1023, 0x1p1013, 0x1p1014, 2000},
		{"term above the binade", 1, 3, 5, 100},
		{"negative start", -100, 0.8, 8, 100},
		{"NaN term", 1, math.NaN(), 8, 100},
	}
	for _, c := range cases {
		got := trackRun(c.t, c.sw, c.full, c.k)
		want := plainRun(c.t, c.sw, c.full, c.k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: trackRun(%v, %v, %v, %d) = %v (%#x), plain %v (%#x)",
				c.name, c.t, c.sw, c.full, c.k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestTrackRunMatchesPlain draws random runs whose terms are either
// arbitrary or coarse multiples of a power of two (so ties and exact
// sums are common), at magnitudes from sub-millisecond to ~2^40.
func TestTrackRunMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	term := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(64)) * math.Ldexp(1, rng.Intn(40)-30)
		}
		return rng.Float64() * math.Ldexp(1, rng.Intn(30)-15)
	}
	for i := 0; i < 20000; i++ {
		t0 := rng.Float64() * math.Ldexp(1, rng.Intn(50)-10)
		sw, full := term(), term()
		k := rng.Int63n(3000)
		got, want := trackRun(t0, sw, full, k), plainRun(t0, sw, full, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trackRun(%v, %v, %v, %d) = %v (%#x), plain %v (%#x)",
				t0, sw, full, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestWholeDriveTransferMatchesTrackWalk transfers every sector of the
// drive in one request, the longest runs the zone walk can take.
func TestWholeDriveTransferMatchesTrackWalk(t *testing.T) {
	for _, m := range []Model{tinyModel(), BarracudaES()} {
		geo, err := geom.New(m.Geom)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := mech.NewRotation(m.RPM)
		if err != nil {
			t.Fatal(err)
		}
		n := int(geo.TotalSectors())
		got, want := m.TransferTime(geo, rot, 0, n), trackWalkTransferTime(&m, geo, rot, 0, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s whole drive: got %v (%#x), track walk %v (%#x)",
				m.Name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzTransferTime checks the zone walk against the track-by-track
// reference on a BarracudaES at any start, length, spindle speed and
// layout. Out-of-range inputs are folded into range rather than skipped.
func FuzzTransferTime(f *testing.F) {
	base := BarracudaES()
	total := int64(0)
	if geo, err := geom.New(base.Geom); err == nil {
		total = geo.TotalSectors()
	}
	f.Add(int64(0), total, 7200.0, false)                            // the whole drive
	f.Add(int64(0), total, 15000.0, true)                            // the whole drive, serpentine
	f.Add(int64(12345), int64(base.Geom.OuterSPT), 7200.0, false)    // one track's worth
	f.Add(int64(987654), int64(64*base.Geom.OuterSPT), 5200.0, true) // 64 tracks
	f.Add(total/3, int64(rebuildChunkSectors), 7200.0, false)        // a rebuild chunk
	f.Add(total/2, int64(rebuildChunkSectors), 7500.0, true)         // a period on the grid (8 ms)
	f.Add(total-1, int64(1), 5200.0, false)                          // the last sector
	f.Fuzz(func(t *testing.T, lba, sectors int64, rpm float64, serpentine bool) {
		if math.IsNaN(rpm) || math.IsInf(rpm, 0) {
			t.Skip()
		}
		if !(rpm >= 1000 && rpm <= 30000) {
			rpm = 1000 + math.Mod(math.Abs(rpm), 29000)
		}
		m := base.WithRPM(rpm)
		m.Geom.Serpentine = serpentine
		geo, err := geom.New(m.Geom)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := mech.NewRotation(m.RPM)
		if err != nil {
			t.Fatal(err)
		}
		lba = int64(uint64(lba) % uint64(total))
		n := 1 + int(uint64(sectors-1)%uint64(total-lba))
		got, want := m.TransferTime(geo, rot, lba, n), trackWalkTransferTime(&m, geo, rot, lba, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s lba %d sectors %d: got %v (%#x), track walk %v (%#x)",
				m.Name, lba, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
