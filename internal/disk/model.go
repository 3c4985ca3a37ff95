// Package disk implements the hard disk drive engine at DiskSim's level
// of detail: zoned geometry, a fitted seek curve, a continuously
// rotating spindle, an on-board segmented cache, queue scheduling, and
// per-mode power accounting, over one arm assembly (a conventional
// drive) or several (the paper's intra-disk parallel designs, which
// package core names). It also carries the named drive models the
// paper's experiments use.
package disk

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/mech"
	"repro/internal/power"
)

// Model is the full static description of a drive product: everything
// needed to instantiate a simulated drive.
type Model struct {
	Name       string
	Geom       geom.Spec
	RPM        float64
	DiameterIn float64

	// Seek curve datasheet points (MaxCyl comes from Geom).
	SingleCylMs  float64
	AvgSeekMs    float64
	FullStrokeMs float64

	// On-board cache.
	CacheBytes       int64
	CacheSegments    int
	ReadAheadSectors int

	// Fixed overheads.
	ControllerOverheadMs float64 // command processing before mechanics
	CacheHitMs           float64 // full service time of a cache hit
	TrackSwitchMs        float64 // head/cylinder switch mid-transfer

	PowerCoeff power.Coefficients
}

// maxRPM bounds a spindle speed far past any real drive (they stop near
// 15000 RPM) and keeps every platter angle of a run finite: below 1 RPM
// the spindle is stopped, and at 1e305 RPM the angle turns NaN within
// ~30 simulated hours.
const maxRPM = 1e6

// Validate reports the first problem with the model, if any.
func (m Model) Validate() error {
	if err := m.Geom.Validate(); err != nil {
		return err
	}
	if err := m.seekSpec().Validate(); err != nil {
		return err
	}
	switch {
	case !(m.RPM >= 1 && m.RPM <= maxRPM): // also rejects NaN
		return fmt.Errorf("disk: %s: RPM %g outside [1, %g]", m.Name, m.RPM, maxRPM)
	case m.DiameterIn <= 0:
		return fmt.Errorf("disk: %s: DiameterIn must be positive", m.Name)
	case m.CacheBytes < 0:
		return fmt.Errorf("disk: %s: CacheBytes must be nonnegative", m.Name)
	case m.ControllerOverheadMs < 0 || m.CacheHitMs < 0 || m.TrackSwitchMs < 0:
		return fmt.Errorf("disk: %s: overheads must be nonnegative", m.Name)
	}
	return nil
}

func (m Model) seekSpec() mech.SeekSpec {
	return mech.SeekSpec{
		SingleCylMs:  m.SingleCylMs,
		AvgMs:        m.AvgSeekMs,
		FullStrokeMs: m.FullStrokeMs,
		MaxCyl:       m.Geom.Cylinders - 1,
	}
}

func (m Model) cacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:        m.CacheBytes,
		SectorBytes:      m.Geom.SectorBytes,
		Segments:         m.CacheSegments,
		ReadAheadSectors: m.ReadAheadSectors,
	}
}

// PowerSpec derives the power-model drive parameters for a drive built
// from this model with the given actuator count.
func (m Model) PowerSpec(actuators int) power.DriveSpec {
	return power.DriveSpec{
		Platters:   m.Geom.Platters,
		DiameterIn: m.DiameterIn,
		RPM:        m.RPM,
		Actuators:  actuators,
	}
}

// TransferTime reports the media time to transfer sectors starting at
// lba on a drive with geometry geo spinning at rot: it walks the request
// across tracks and zones, accumulating each track's share of a
// revolution plus TrackSwitchMs at every track crossing. Every drive
// kind built from a Model (conventional, intra-disk parallel, DRPM)
// shares this walk, so they agree on transfer time to the bit.
//
// Only the first, possibly partial, track needs Locate. Both layouts
// split a zone into SPT-sector tracks starting at the zone's FirstLBA,
// so every later track starts at a track boundary of a known zone and
// the walk steps through the zone table directly. The result is the
// track-by-track sum, rounded after every addition in track order:
// callers rely on it being bit-identical to that walk. A zone's run of
// full tracks adds the same two terms over and over, and trackRun
// computes that run in one step per binade of the running sum instead
// of one per track; see there for why this is exact.
func (m *Model) TransferTime(geo *geom.Geometry, rot *mech.Rotation, lba int64, sectors int) float64 {
	if sectors <= 0 {
		return 0
	}
	l := geo.Locate(lba)
	first := min(l.SPT-l.Sector, sectors)
	t := rot.TransferTime(first, l.SPT)
	remaining := int64(sectors - first)
	cur := lba + int64(first)
	zones := geo.Zones()
	for zi := l.Zone; remaining > 0; zi++ {
		if zi == len(zones) {
			geo.Locate(cur) // past the last zone: panics with the range error
		}
		z := &zones[zi]
		spt := int64(z.SPT)
		end := z.FirstLBA + z.Sectors
		if span := min(remaining, end-cur); span >= spt {
			k := span / spt
			t = trackRun(t, m.TrackSwitchMs, rot.TransferTime(z.SPT, z.SPT), k)
			remaining -= k * spt
			cur += k * spt
		}
		if remaining > 0 && cur < end {
			// The last, partial track ends the transfer inside this zone.
			t += m.TrackSwitchMs
			t += rot.TransferTime(int(remaining), z.SPT)
			remaining = 0
		}
	}
	return t
}

// directRun is the run length below which trackRun just adds the terms:
// a binade step costs two divisions, which a short run of additions
// (a track or a few dozen, the common request sizes) does not repay.
const directRun = 16

// trackRun returns t after k iterations of t = (t + sw) + full, rounded
// exactly as those 2k additions would be, in O(binades) steps.
//
// Inside a binade [2^e, 2^(e+1)) every double is a multiple of
// u = 2^(e-52). For t in the binade and c >= 0 with t + c below
// 2^(e+1), the nearest double to t + c is therefore t + rn_u(c), c
// rounded to the nearest multiple of u, whatever t is, except when c
// lies exactly halfway between two multiples: that tie rounds to even,
// which depends on t. So while no partial sum reaches 2^(e+1), n
// iterations add exactly n*(rn_u(sw) + rn_u(full)), an integer count of
// u computed without rounding. trackRun jumps as many iterations as fit
// strictly below the binade's upper edge, then adds the next pair
// plainly to cross it. Runs too short to pay for the divisions, ties,
// terms too large for the binade, and t that is negative, non-finite or
// below 2^-970 take plain additions.
func trackRun(t, sw, full float64, k int64) float64 {
	for k >= directRun {
		// The biased exponent; above 0x7fe t is NaN, ±Inf or negative,
		// and at or below 52 its binade's spacing is subnormal.
		e := math.Float64bits(t) >> 52
		if e <= 52 || e >= 0x7ff {
			break
		}
		edge := math.Float64frombits((e + 1) << 52) // +Inf above the last binade
		if edge-t >= directRun*(sw+full) {
			u := math.Float64frombits((e - 52) << 52) // 2^(e-1075), the binade's spacing
			ns, okS := gridUnits(sw, u)
			nf, okF := gridUnits(full, u)
			if okS && okF {
				units := int64(t / u) // exact: t is a multiple of u below 2^53·u
				n := k
				if step := ns + nf; step > 0 {
					n = min(k, (1<<53-1-units)/step)
				}
				t = float64(units+n*(ns+nf)) * u // exact: an integer below 2^53 times u
				k -= n
			}
		}
		// Add the binade's remaining iterations plainly, crossing its
		// edge: one after a jump, a few when few fit, all of them when
		// a tie or a term too large for the grid ruled out the jump.
		for ; k > 0 && t < edge; k-- {
			t += sw
			t += full
		}
	}
	for ; k > 0; k-- {
		t += sw
		t += full
	}
	return t
}

// gridUnits rounds c >= 0 to the nearest multiple of the power of two
// u and reports that multiple as an integer count. It reports false for
// a tie, where round-half-even depends on what c is added to, and for c
// that is negative, NaN, or at least 2^53·u. The floor and remainder
// are exact; Floor(q+0.5) is not, since q+0.5 can round up to the next
// integer when q is just below a half.
func gridUnits(c, u float64) (int64, bool) {
	q := c / u // exact: u is a power of two (or q underflows far below 1/2)
	if !(q >= 0 && q < 1<<53) {
		return 0, false
	}
	f := math.Floor(q)
	switch r := q - f; {
	case r < 0.5:
		return int64(f), true
	case r > 0.5:
		return int64(f) + 1, true
	}
	return 0, false
}

// WithRPM returns a copy of the model redesigned for a different spindle
// speed — the paper's §7.2 reduced-RPM design points. Geometry, seek
// curve and cache are unchanged; rotation period and power both follow
// the new RPM.
func (m Model) WithRPM(rpm float64) Model {
	m.RPM = rpm
	m.Name = fmt.Sprintf("%s/%d", m.Name, int(rpm))
	return m
}

// BarracudaES returns the paper's HC-SD drive: a Seagate Barracuda
// ES-class 750 GB, 4-platter, 7200 RPM SATA drive with an 8 MB buffer
// (the paper's §7.1 configuration).
func BarracudaES() Model {
	return Model{
		Name: "Barracuda-ES-750",
		Geom: geom.Spec{
			Name:     "barracuda-es-750",
			Platters: 4, SurfacesPerPlatter: 2,
			Cylinders: 159000, Zones: 16,
			OuterSPT: 1430, InnerSPT: 870,
			SectorBytes: 512, TrackSkew: 120, CylinderSkew: 180,
		},
		RPM: 7200, DiameterIn: 3.7,
		SingleCylMs: 0.8, AvgSeekMs: 8.5, FullStrokeMs: 17.0,
		CacheBytes: 8 << 20, CacheSegments: 16, ReadAheadSectors: 256,
		ControllerOverheadMs: 0.3, CacheHitMs: 0.2, TrackSwitchMs: 0.8,
		PowerCoeff: power.Default(),
	}
}

// Drive10K18GB returns the 18/19 GB 10,000 RPM 4-platter enterprise
// drive the Financial and Websearch arrays were built from (Table 2).
func Drive10K18GB() Model {
	return Model{
		Name: "Enterprise-10K-19GB",
		Geom: geom.Spec{
			Name:     "ent-10k-19",
			Platters: 4, SurfacesPerPlatter: 2,
			Cylinders: 9300, Zones: 8,
			OuterSPT: 600, InnerSPT: 400,
			SectorBytes: 512, TrackSkew: 60, CylinderSkew: 90,
		},
		RPM: 10000, DiameterIn: 3.0,
		SingleCylMs: 0.6, AvgSeekMs: 4.7, FullStrokeMs: 10.5,
		CacheBytes: 4 << 20, CacheSegments: 16, ReadAheadSectors: 128,
		ControllerOverheadMs: 0.3, CacheHitMs: 0.2, TrackSwitchMs: 0.6,
		PowerCoeff: power.Default(),
	}
}

// Drive10K37GB returns the 37 GB 10,000 RPM 4-platter drive of the
// TPC-C array (Table 2).
func Drive10K37GB() Model {
	return Model{
		Name: "Enterprise-10K-37GB",
		Geom: geom.Spec{
			Name:     "ent-10k-37",
			Platters: 4, SurfacesPerPlatter: 2,
			Cylinders: 15100, Zones: 8,
			OuterSPT: 720, InnerSPT: 480,
			SectorBytes: 512, TrackSkew: 70, CylinderSkew: 110,
		},
		RPM: 10000, DiameterIn: 3.0,
		SingleCylMs: 0.6, AvgSeekMs: 4.9, FullStrokeMs: 10.8,
		CacheBytes: 4 << 20, CacheSegments: 16, ReadAheadSectors: 128,
		ControllerOverheadMs: 0.3, CacheHitMs: 0.2, TrackSwitchMs: 0.6,
		PowerCoeff: power.Default(),
	}
}

// Drive7200x36GB returns the 36 GB 7200 RPM 6-platter drive of the
// TPC-H array (Table 2).
func Drive7200x36GB() Model {
	return Model{
		Name: "Server-7200-36GB",
		Geom: geom.Spec{
			Name:     "srv-7200-36",
			Platters: 6, SurfacesPerPlatter: 2,
			Cylinders: 10500, Zones: 8,
			OuterSPT: 670, InnerSPT: 450,
			SectorBytes: 512, TrackSkew: 60, CylinderSkew: 100,
		},
		RPM: 7200, DiameterIn: 3.5,
		SingleCylMs: 0.8, AvgSeekMs: 8.5, FullStrokeMs: 16.0,
		CacheBytes: 4 << 20, CacheSegments: 16, ReadAheadSectors: 128,
		ControllerOverheadMs: 0.3, CacheHitMs: 0.2, TrackSwitchMs: 0.8,
		PowerCoeff: power.Default(),
	}
}
