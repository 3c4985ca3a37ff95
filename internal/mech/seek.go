// Package mech models the mechanical subsystems of a disk drive: the
// voice-coil-motor driven seek (arm) system and the spindle-motor driven
// rotation system. Both models follow the extraction DiskSim performs from
// datasheet numbers: the seek curve is fit to the single-cylinder, average
// and full-stroke seek times, and rotation is a continuously spinning
// platter whose angular position is a pure function of time.
package mech

import (
	"fmt"
	"math"
)

// SeekSpec holds the three datasheet seek points a curve is fit to.
type SeekSpec struct {
	SingleCylMs  float64 // track-to-track seek time, ms
	AvgMs        float64 // manufacturer "average" seek time, ms
	FullStrokeMs float64 // full-stroke seek time, ms
	MaxCyl       int     // highest cylinder number (Cylinders-1)
}

// Validate reports the first problem with the spec, if any.
func (s SeekSpec) Validate() error {
	switch {
	case s.MaxCyl <= 1:
		return fmt.Errorf("mech: MaxCyl %d too small", s.MaxCyl)
	case s.SingleCylMs <= 0:
		return fmt.Errorf("mech: SingleCylMs %v must be positive", s.SingleCylMs)
	case s.AvgMs <= s.SingleCylMs:
		return fmt.Errorf("mech: AvgMs %v must exceed SingleCylMs %v", s.AvgMs, s.SingleCylMs)
	case s.FullStrokeMs <= s.AvgMs:
		return fmt.Errorf("mech: FullStrokeMs %v must exceed AvgMs %v", s.FullStrokeMs, s.AvgMs)
	}
	return nil
}

// SeekCurve converts a seek distance in cylinders to a seek time.
//
// The curve has the classic two-region shape: an acceleration-limited
// square-root region for short seeks and a coast-speed-limited linear
// region for long seeks. The regions meet at one third of the full stroke,
// where the manufacturer's "average" seek time is anchored (the mean seek
// distance of uniformly random requests is ~1/3 of the stroke).
type SeekCurve struct {
	spec   SeekSpec
	cutoff float64 // region boundary, cylinders
	a, b   float64 // sqrt region: a + b*sqrt(d)
	c, e   float64 // linear region: c + e*d
}

// NewSeekCurve fits a curve to the spec's three datasheet points.
func NewSeekCurve(spec SeekSpec) (*SeekCurve, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cutoff := float64(spec.MaxCyl) / 3
	if cutoff <= 1 {
		cutoff = 2
	}
	// sqrt region through (1, SingleCylMs) and (cutoff, AvgMs).
	b := (spec.AvgMs - spec.SingleCylMs) / (math.Sqrt(cutoff) - 1)
	a := spec.SingleCylMs - b
	// linear region through (cutoff, AvgMs) and (MaxCyl, FullStrokeMs).
	e := (spec.FullStrokeMs - spec.AvgMs) / (float64(spec.MaxCyl) - cutoff)
	c := spec.AvgMs - e*cutoff
	return &SeekCurve{spec: spec, cutoff: cutoff, a: a, b: b, c: c, e: e}, nil
}

// Spec returns the datasheet points the curve was fit to.
func (s *SeekCurve) Spec() SeekSpec { return s.spec }

// Time reports the seek time in ms for a move of dist cylinders.
// A zero-distance "seek" takes no time (any head-settle cost for an
// on-cylinder access is part of the controller overhead, not the seek).
func (s *SeekCurve) Time(dist int) float64 {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	d := float64(dist)
	if d <= s.cutoff {
		return s.a + s.b*math.Sqrt(d)
	}
	return s.c + s.e*d
}

// MeanTime estimates the average seek time for uniformly random request
// pairs by sampling the analytic curve at the mean random-seek distance.
func (s *SeekCurve) MeanTime() float64 {
	return s.Time(s.spec.MaxCyl / 3)
}

// Rotation models the spindle: a platter stack spinning at a constant RPM.
// Angular position is measured as a fraction of a revolution in [0,1).
// All surfaces share the spindle, so one Rotation serves a whole drive.
type Rotation struct {
	rpm      float64
	periodMs float64
}

// NewRotation returns the rotation model for the given spindle speed.
func NewRotation(rpm float64) (*Rotation, error) {
	if rpm <= 0 {
		return nil, fmt.Errorf("mech: rpm %v must be positive", rpm)
	}
	return &Rotation{rpm: rpm, periodMs: 60000 / rpm}, nil
}

// RPM reports the spindle speed.
func (r *Rotation) RPM() float64 { return r.rpm }

// PeriodMs reports the time of one full revolution in ms.
func (r *Rotation) PeriodMs() float64 { return r.periodMs }

// AngleAt reports the platter's angular position at time t (ms), as a
// fraction of a revolution in [0,1). Position zero passes under the heads
// at t=0, t=period, 2*period, ...
//
// The fraction is x - Floor(x) for x = t/period. For x >= 0 the
// subtraction is exact (Floor(x) is within a factor of two of x), as is
// math.Mod(x, 1), so the two agree bit for bit; for x < 0 both round the
// same exact value x - Floor(x) once. Floor compiles to one instruction,
// where Mod is a software loop over the exponent — and this runs once
// per candidate per arm in every SPTF scan. (An exact negative integer
// gives +0 here where Mod gave -0; simulated time is never negative.)
func (r *Rotation) AngleAt(t float64) float64 {
	x := t / r.periodMs
	return x - math.Floor(x)
}

// LatencyTo reports the time (ms) until the sector starting at angular
// position target (fraction of a revolution) next passes under the head,
// starting from time t. The result is in [0, period).
func (r *Rotation) LatencyTo(target, t float64) float64 {
	cur := r.AngleAt(t)
	d := target - cur
	if d < 0 {
		d += 1
	}
	lat := d * r.periodMs
	if lat >= r.periodMs {
		lat -= r.periodMs
	}
	return lat
}

// AvgLatencyMs reports the expected rotational latency for random
// requests: half a revolution.
func (r *Rotation) AvgLatencyMs() float64 { return r.periodMs / 2 }

// TransferTime reports the time (ms) to read or write `sectors`
// consecutive sectors on a track holding spt sectors: the platter must
// rotate under the head for that fraction of a revolution.
func (r *Rotation) TransferTime(sectors, spt int) float64 {
	if sectors <= 0 || spt <= 0 {
		return 0
	}
	return float64(sectors) / float64(spt) * r.periodMs
}
