// Package device defines the interface storage devices expose to the
// layers above them (trace replay, RAID controllers, experiment drivers).
package device

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// Done is invoked when a submitted request completes, with the completion
// time in simulated milliseconds.
type Done func(completedAt float64)

// Device is a storage device attached to a simulation engine: a single
// disk drive, an intra-disk parallel drive, or an array of either.
type Device interface {
	// Submit presents a request at the current simulated time. done may
	// be nil when the caller does not need the completion.
	Submit(r trace.Request, done Done)
	// Power reports the average-power breakdown over a run of elapsed ms.
	Power(elapsedMs float64) power.Breakdown
	// Capacity reports the device's addressable size in sectors.
	Capacity() int64
}

// Instrumented is the uniform statistics surface: any component that
// can report an obs.Snapshot. All the storage devices in this
// repository implement it; composite devices (arrays, routers, bus
// attachments) roll their members up as snapshot children, so one
// interface replaces the per-device getter zoo for every consumer that
// only wants numbers out.
type Instrumented interface {
	// Snapshot captures the component's statistics at the current
	// simulated time. The result is a deep copy: it never aliases live
	// instruments and stays valid after the simulation moves on.
	Snapshot() obs.Snapshot
}

// ZeroedScale is a seek/rotation scale value meaning "exactly zero" —
// distinguishable from an unset (default 1.0) scale. It implements the
// paper's Figure 4 limit-study points S=0 and R=0.
const ZeroedScale = -1

// ValidateScale reports whether s is a usable seek/rotation scale: 0
// (unset, meaning 1.0), ZeroedScale (exactly 0), or a finite positive
// multiplier. The error names the field. NaN and the infinities are
// rejected with the negatives: a NaN scale makes every positioning
// cost NaN, and a cost-minimizing dispatch cannot order NaNs.
func ValidateScale(field string, s float64) error {
	if s == 0 || s == ZeroedScale || (s > 0 && !math.IsInf(s, 1)) {
		return nil
	}
	return fmt.Errorf("%s %v must be 0 (unset), ZeroedScale (%d) or finite and positive",
		field, s, ZeroedScale)
}

// NormalizeScale resolves the scale semantics shared by every drive
// model: 0 means unset (1.0), ZeroedScale means exactly 0. Any value
// ValidateScale rejects is a configuration bug that the drive's
// validation should already have reported, so it panics.
func NormalizeScale(s float64) float64 {
	if err := ValidateScale("scale", s); err != nil {
		panic("device: invalid " + err.Error())
	}
	switch s {
	case 0:
		return 1
	case ZeroedScale:
		return 0
	default:
		return s
	}
}
