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
