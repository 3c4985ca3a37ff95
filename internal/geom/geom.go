// Package geom models hard disk drive geometry: platters, surfaces,
// cylinders, zoned bit recording, and the mapping between logical block
// addresses and physical sector locations.
//
// The model follows the conventions used by detailed disk simulators such
// as DiskSim: the logical address space fills cylinders outer-to-inner
// (cylinder-major order), each zone holds a contiguous range of cylinders
// with a constant number of sectors per track, and track/cylinder skew
// offsets the angular position of logical sector zero from one track to
// the next so that sequential transfers do not miss a full revolution at
// each track boundary.
package geom

import (
	"errors"
	"fmt"
)

// Spec describes a drive's recording geometry. All fields must be
// positive except the skews, which may be zero.
type Spec struct {
	Name               string
	Platters           int // physical platters in the stack
	SurfacesPerPlatter int // recording surfaces per platter (normally 2)
	Cylinders          int // total cylinders (outer = 0)
	Zones              int // zoned-bit-recording zone count
	OuterSPT           int // sectors per track in the outermost zone
	InnerSPT           int // sectors per track in the innermost zone
	SectorBytes        int // bytes per sector (normally 512)
	TrackSkew          int // sector skew between tracks of one cylinder
	CylinderSkew       int // sector skew between adjacent cylinders

	// Serpentine selects the modern surface-major layout: within each
	// zone the logical space fills one surface across all the zone's
	// cylinders before switching heads, reversing direction on each
	// successive surface. The default (false) is the classic
	// cylinder-major layout. Serpentine trades head switches (slow, they
	// need a full servo settle) for single-cylinder seeks on sequential
	// streams.
	Serpentine bool
}

// Validate reports the first problem with the spec, if any.
func (s Spec) Validate() error {
	switch {
	case s.Platters <= 0:
		return errors.New("geom: Platters must be positive")
	case s.SurfacesPerPlatter <= 0:
		return errors.New("geom: SurfacesPerPlatter must be positive")
	case s.Cylinders <= 0:
		return errors.New("geom: Cylinders must be positive")
	case s.Zones <= 0:
		return errors.New("geom: Zones must be positive")
	case s.Zones > s.Cylinders:
		return errors.New("geom: more zones than cylinders")
	case s.OuterSPT <= 0 || s.InnerSPT <= 0:
		return errors.New("geom: sectors per track must be positive")
	case s.InnerSPT > s.OuterSPT:
		return errors.New("geom: inner zone cannot be denser than outer zone")
	case s.SectorBytes <= 0:
		return errors.New("geom: SectorBytes must be positive")
	case s.TrackSkew < 0 || s.CylinderSkew < 0:
		return errors.New("geom: skews must be nonnegative")
	}
	return nil
}

// Zone is one zoned-bit-recording band: a contiguous run of cylinders
// that all share the same sectors-per-track count.
type Zone struct {
	Index    int
	FirstCyl int
	CylCount int
	SPT      int   // sectors per track within the zone
	FirstLBA int64 // first logical block of the zone
	Sectors  int64 // total sectors in the zone
}

// Geometry is a validated, fully derived drive geometry.
type Geometry struct {
	spec     Spec
	surfaces int
	zones    []Zone
	total    int64
}

// New derives the full geometry from a spec.
func New(spec Spec) (*Geometry, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Geometry{
		spec:     spec,
		surfaces: spec.Platters * spec.SurfacesPerPlatter,
	}
	g.zones = make([]Zone, spec.Zones)
	base := spec.Cylinders / spec.Zones
	extra := spec.Cylinders % spec.Zones
	cyl := 0
	var lba int64
	for i := range g.zones {
		count := base
		if i < extra {
			count++
		}
		spt := zoneSPT(i, spec.Zones, spec.OuterSPT, spec.InnerSPT)
		z := Zone{
			Index:    i,
			FirstCyl: cyl,
			CylCount: count,
			SPT:      spt,
			FirstLBA: lba,
			Sectors:  int64(count) * int64(g.surfaces) * int64(spt),
		}
		g.zones[i] = z
		cyl += count
		lba += z.Sectors
	}
	g.total = lba
	return g, nil
}

// zoneSPT linearly interpolates sectors-per-track from the outer to the
// inner zone.
func zoneSPT(i, zones, outer, inner int) int {
	if zones == 1 {
		return outer
	}
	// Interpolate on zone index; round to nearest.
	num := outer*(zones-1-i) + inner*i
	den := zones - 1
	return (num + den/2) / den
}

// Spec returns the spec the geometry was derived from.
func (g *Geometry) Spec() Spec { return g.spec }

// Surfaces reports the number of recording surfaces.
func (g *Geometry) Surfaces() int { return g.surfaces }

// Cylinders reports the total cylinder count.
func (g *Geometry) Cylinders() int { return g.spec.Cylinders }

// Zones returns the derived zone table (callers must not modify it).
func (g *Geometry) Zones() []Zone { return g.zones }

// TotalSectors reports the drive's capacity in sectors.
func (g *Geometry) TotalSectors() int64 { return g.total }

// CapacityBytes reports the drive's formatted capacity in bytes.
func (g *Geometry) CapacityBytes() int64 {
	return g.total * int64(g.spec.SectorBytes)
}

// Loc is the physical location of one logical block.
type Loc struct {
	Zone    int
	Cyl     int // absolute cylinder (0 = outermost)
	Surface int
	Sector  int     // logical sector index within the track
	SPT     int     // sectors per track at this location
	Angle   float64 // angular position of the sector start, in [0,1)
}

// Locate maps a logical block address to its physical location.
// It panics if lba is out of range; address validation belongs to the
// request-admission layer, and an out-of-range block reaching the
// geometry always indicates a simulator bug.
func (g *Geometry) Locate(lba int64) Loc {
	if lba < 0 || lba >= g.total {
		panic(fmt.Sprintf("geom: lba %d out of range [0,%d)", lba, g.total))
	}
	zi := g.zoneIndex(lba)
	z := &g.zones[zi]
	off := lba - z.FirstLBA
	var cylIn, surface, sector int
	if g.spec.Serpentine {
		perSurface := int64(z.CylCount) * int64(z.SPT)
		surface = int(off / perSurface)
		rem := off % perSurface
		cylIn = int(rem / int64(z.SPT))
		if surface%2 == 1 {
			cylIn = z.CylCount - 1 - cylIn // odd surfaces run inward-out
		}
		sector = int(rem % int64(z.SPT))
	} else {
		perCyl := int64(g.surfaces) * int64(z.SPT)
		cylIn = int(off / perCyl)
		rem := off % perCyl
		surface = int(rem / int64(z.SPT))
		sector = int(rem % int64(z.SPT))
	}
	cyl := z.FirstCyl + cylIn
	return Loc{
		Zone:    zi,
		Cyl:     cyl,
		Surface: surface,
		Sector:  sector,
		SPT:     z.SPT,
		Angle:   g.angle(cyl, surface, sector, z.SPT),
	}
}

// zoneIndex returns the index of the zone holding lba, which must be in
// range: the first zone ending past lba, found by binary search.
func (g *Geometry) zoneIndex(lba int64) int {
	lo, hi := 0, len(g.zones)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z := &g.zones[mid]; z.FirstLBA+z.Sectors > lba {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// angle computes the angular position (fraction of a revolution) at which
// logical sector `sector` of the given track begins, accounting for track
// and cylinder skew.
func (g *Geometry) angle(cyl, surface, sector, spt int) float64 {
	skew := surface*g.spec.TrackSkew + cyl*g.spec.CylinderSkew
	phys := (sector + skew) % spt
	return float64(phys) / float64(spt)
}

// LBAOf is the inverse of Locate: it maps a physical location back to the
// logical block address. Angle is ignored. It panics on locations outside
// the geometry.
func (g *Geometry) LBAOf(l Loc) int64 {
	if l.Zone < 0 || l.Zone >= len(g.zones) {
		panic(fmt.Sprintf("geom: zone %d out of range", l.Zone))
	}
	z := g.zones[l.Zone]
	cylIn := l.Cyl - z.FirstCyl
	if cylIn < 0 || cylIn >= z.CylCount {
		panic(fmt.Sprintf("geom: cylinder %d outside zone %d", l.Cyl, l.Zone))
	}
	if l.Surface < 0 || l.Surface >= g.surfaces {
		panic(fmt.Sprintf("geom: surface %d out of range", l.Surface))
	}
	if l.Sector < 0 || l.Sector >= z.SPT {
		panic(fmt.Sprintf("geom: sector %d outside track of %d", l.Sector, z.SPT))
	}
	if g.spec.Serpentine {
		if l.Surface%2 == 1 {
			cylIn = z.CylCount - 1 - cylIn
		}
		return z.FirstLBA + int64(l.Surface)*int64(z.CylCount)*int64(z.SPT) +
			int64(cylIn)*int64(z.SPT) + int64(l.Sector)
	}
	return z.FirstLBA + int64(cylIn)*int64(g.surfaces)*int64(z.SPT) +
		int64(l.Surface)*int64(z.SPT) + int64(l.Sector)
}

// CylOf reports just the cylinder holding lba (cheaper than Locate for
// the cylinder-major layout).
func (g *Geometry) CylOf(lba int64) int {
	if lba < 0 || lba >= g.total {
		panic(fmt.Sprintf("geom: lba %d out of range [0,%d)", lba, g.total))
	}
	if g.spec.Serpentine {
		return g.Locate(lba).Cyl
	}
	z := &g.zones[g.zoneIndex(lba)]
	off := lba - z.FirstLBA
	perCyl := int64(g.surfaces) * int64(z.SPT)
	return z.FirstCyl + int(off/perCyl)
}

// TrackRemainder reports how many sectors, starting at lba inclusive,
// remain on lba's track. Sequential transfers proceed this many sectors
// before a head or cylinder switch is needed.
func (g *Geometry) TrackRemainder(lba int64) int {
	l := g.Locate(lba)
	return l.SPT - l.Sector
}

// ZoneOf reports the zone index holding lba.
func (g *Geometry) ZoneOf(lba int64) int {
	return g.Locate(lba).Zone
}

// MeanSPT reports the capacity-weighted mean sectors-per-track, a proxy
// for the drive's average internal media rate.
func (g *Geometry) MeanSPT() float64 {
	var weighted float64
	for _, z := range g.zones {
		weighted += float64(z.SPT) * float64(z.Sectors)
	}
	return weighted / float64(g.total)
}

// String summarizes the geometry.
func (g *Geometry) String() string {
	return fmt.Sprintf("%s: %d platters, %d surfaces, %d cyls, %d zones, %d sectors (%.1f GB)",
		g.spec.Name, g.spec.Platters, g.surfaces, g.spec.Cylinders, len(g.zones),
		g.total, float64(g.CapacityBytes())/1e9)
}
