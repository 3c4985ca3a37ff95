// Package power implements the electro-mechanical disk power models the
// paper uses (derived from the authors' SODA models, DAC'07):
//
//   - spindle-motor (SPM) power grows roughly with the 4.6th power of
//     platter diameter, the cube (modeled here with exponent 2.8) of RPM,
//     and linearly with the platter count;
//   - voice-coil-motor (VCM) power is paid per actuator while that
//     actuator's arm assembly is in motion, and grows with platter size;
//   - the data channel adds power while a head transfers.
//
// The coefficients are calibrated to the paper's two anchors (Table 1):
// a Seagate Barracuda ES-class drive draws ~13 W with one VCM active, and
// its hypothetical 4-actuator extension ~34 W with all four VCMs active.
//
// Average power is produced by integrating per-mode wall time (idle,
// seek, rotational latency, transfer) against the per-mode power levels,
// which is exactly how the paper's stacked power bars are built.
package power

import (
	"fmt"
	"math"
)

// Mode is one of the four operating modes the paper accounts for.
type Mode int

// The four disk operating modes of the paper's power breakdown.
const (
	Idle Mode = iota
	Seek
	RotLatency
	Transfer
	numModes
)

// Modes lists all modes in display order (the paper's stacking order is
// transfer / rotational latency / seek / idle, top to bottom).
var Modes = []Mode{Idle, Seek, RotLatency, Transfer}

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case Idle:
		return "Idle"
	case Seek:
		return "Seek"
	case RotLatency:
		return "Rotational Latency"
	case Transfer:
		return "Transfer"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Coefficients holds the calibration constants of the model.
type Coefficients struct {
	SPMCoeff    float64 // W per (platter * inch^SPMDiamExp * (kRPM)^SPMRPMExp)
	SPMDiamExp  float64 // platter-diameter exponent for spindle power (~4.6)
	SPMRPMExp   float64 // RPM exponent for spindle power (~2.8-3)
	VCMCoeff    float64 // W per inch^VCMDiamExp while one arm is in motion
	VCMDiamExp  float64 // platter-diameter exponent for VCM power
	ElecW       float64 // controller/channel electronics baseline, W
	TransferW   float64 // extra power while a head transfers data, W
	ElecPerArmW float64 // extra electronics (preamp, driver) per actuator, W
}

// Default returns the coefficient set calibrated to the paper's anchors.
//
// With these values a Barracuda-ES-class drive (4 platters, 3.7 in,
// 7200 RPM) idles near 7 W, draws ~13.5 W while seeking, and its
// 4-actuator extension peaks near 34 W — matching Table 1 of the paper.
func Default() Coefficients {
	return Coefficients{
		SPMCoeff:    1.33e-5,
		SPMDiamExp:  4.6,
		SPMRPMExp:   2.8,
		VCMCoeff:    0.48,
		VCMDiamExp:  2.0,
		ElecW:       1.5,
		TransferW:   1.0,
		ElecPerArmW: 0.1,
	}
}

// DriveSpec holds the physical parameters the power model depends on.
type DriveSpec struct {
	Platters   int
	DiameterIn float64 // platter diameter in inches
	RPM        float64
	Actuators  int // arm assemblies (1 for a conventional drive)
}

// Validate reports the first problem with the spec, if any.
func (d DriveSpec) Validate() error {
	switch {
	case d.Platters <= 0:
		return fmt.Errorf("power: Platters %d must be positive", d.Platters)
	case d.DiameterIn <= 0:
		return fmt.Errorf("power: DiameterIn %v must be positive", d.DiameterIn)
	case d.RPM <= 0:
		return fmt.Errorf("power: RPM %v must be positive", d.RPM)
	case d.Actuators <= 0:
		return fmt.Errorf("power: Actuators %d must be positive", d.Actuators)
	}
	return nil
}

// Model evaluates per-mode power levels for one drive.
type Model struct {
	coeff Coefficients
	spec  DriveSpec

	// The two math.Pow-based levels, computed once in NewModel: the
	// spec and coefficients never change, and the accountant asks for
	// them on every service.
	spm, vcm float64
}

// NewModel builds a power model for the drive described by spec.
func NewModel(coeff Coefficients, spec DriveSpec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		coeff: coeff,
		spec:  spec,
		spm: coeff.SPMCoeff * float64(spec.Platters) *
			math.Pow(spec.DiameterIn, coeff.SPMDiamExp) *
			math.Pow(spec.RPM/1000, coeff.SPMRPMExp),
		vcm: coeff.VCMCoeff * math.Pow(spec.DiameterIn, coeff.VCMDiamExp),
	}, nil
}

// Spec returns the drive parameters of the model.
func (m *Model) Spec() DriveSpec { return m.spec }

// SPMPower reports the spindle-motor power in watts: the always-on cost
// of keeping the platter stack spinning.
func (m *Model) SPMPower() float64 { return m.spm }

// VCMPower reports the power one moving arm assembly draws, in watts.
func (m *Model) VCMPower() float64 { return m.vcm }

// ElectronicsPower reports the baseline electronics power, including the
// per-actuator servo/preamp increment.
func (m *Model) ElectronicsPower() float64 {
	return m.coeff.ElecW + float64(m.spec.Actuators)*m.coeff.ElecPerArmW
}

// IdlePower reports power with platters spinning and arms stationary.
func (m *Model) IdlePower() float64 {
	return m.SPMPower() + m.ElectronicsPower()
}

// ModePower reports the drive's power draw in the given mode with
// activeVCMs arm assemblies in motion (only the Seek mode uses the count;
// pass 1 for a conventional drive).
func (m *Model) ModePower(mode Mode, activeVCMs int) float64 {
	base := m.IdlePower()
	switch mode {
	case Idle, RotLatency:
		// Arms are stationary during rotational waits, so the drive
		// draws idle-level power; the paper accounts the time (and
		// therefore the energy) to the rotational-latency bucket.
		return base
	case Seek:
		if activeVCMs < 1 {
			activeVCMs = 1
		}
		if activeVCMs > m.spec.Actuators {
			activeVCMs = m.spec.Actuators
		}
		return base + float64(activeVCMs)*m.VCMPower()
	case Transfer:
		return base + m.coeff.TransferW
	}
	return base
}

// PeakPower reports the worst case: all arm assemblies in motion plus an
// active transfer. This is the number the drive designer must fit within
// the enclosure's power/thermal envelope (Table 1's "Power/box").
func (m *Model) PeakPower() float64 {
	return m.IdlePower() + float64(m.spec.Actuators)*m.VCMPower() + m.coeff.TransferW
}

// Breakdown is per-mode energy converted to average-power contributions:
// Watts[mode] = energy(mode)/elapsed, so the entries stack to the
// drive's (or array's) total average power.
type Breakdown struct {
	Watts   [numModes]float64
	Elapsed float64 // ms
}

// Total reports the total average power (the stacked bar height).
func (b Breakdown) Total() float64 {
	var t float64
	for _, w := range b.Watts {
		t += w
	}
	return t
}

// Add stacks another breakdown onto this one (for array roll-ups).
// Elapsed is taken as the max of the two (disks run concurrently).
func (b Breakdown) Add(o Breakdown) Breakdown {
	var out Breakdown
	for i := range b.Watts {
		out.Watts[i] = b.Watts[i] + o.Watts[i]
	}
	out.Elapsed = math.Max(b.Elapsed, o.Elapsed)
	return out
}

// Accountant integrates mode-tagged wall time into energy for one drive.
type Accountant struct {
	model *Model
	// energy in W*ms per mode
	energy [numModes]float64
	timeMs [numModes]float64
}

// NewAccountant returns an accountant for the given model.
func NewAccountant(model *Model) *Accountant {
	return &Accountant{model: model}
}

// AddSeek records d ms of seeking with activeVCMs arms in motion.
func (a *Accountant) AddSeek(d float64, activeVCMs int) {
	a.timeMs[Seek] += d
	a.energy[Seek] += d * a.model.ModePower(Seek, activeVCMs)
}

// AddSeekIncrement records d ms of arm motion that overlaps an
// already-accounted busy period (a pre-seek or a concurrent actuator in
// the relaxed multi-arm designs): only the VCM power increment is
// charged, since the drive's baseline power for that wall time is already
// covered by the primary service timeline.
func (a *Accountant) AddSeekIncrement(d float64) {
	a.energy[Seek] += d * a.model.VCMPower()
}

// AddTransferIncrement records d ms of data transfer that overlaps an
// already-accounted busy period (a concurrent channel in the relaxed
// multi-channel designs): only the channel power increment is charged.
func (a *Accountant) AddTransferIncrement(d float64) {
	a.energy[Transfer] += d * a.model.coeff.TransferW
}

// Add records d ms spent in a non-seek mode.
func (a *Accountant) Add(mode Mode, d float64) {
	if mode == Seek {
		a.AddSeek(d, 1)
		return
	}
	a.timeMs[mode] += d
	a.energy[mode] += d * a.model.ModePower(mode, 0)
}

// BusyMs reports the total non-idle time recorded so far.
func (a *Accountant) BusyMs() float64 {
	return a.timeMs[Seek] + a.timeMs[RotLatency] + a.timeMs[Transfer]
}

// ModeMs reports the wall time recorded in one mode.
func (a *Accountant) ModeMs(mode Mode) float64 { return a.timeMs[mode] }

// Breakdown finalizes the accounting over a run of `elapsed` ms: any
// wall time not recorded as busy is charged as idle.
func (a *Accountant) Breakdown(elapsed float64) Breakdown {
	var b Breakdown
	if elapsed <= 0 {
		return b
	}
	idle := elapsed - a.BusyMs()
	if idle < 0 {
		idle = 0
	}
	idleEnergy := idle * a.model.ModePower(Idle, 0)
	b.Watts[Idle] = (a.energy[Idle] + idleEnergy) / elapsed
	b.Watts[Seek] = a.energy[Seek] / elapsed
	b.Watts[RotLatency] = a.energy[RotLatency] / elapsed
	b.Watts[Transfer] = a.energy[Transfer] / elapsed
	b.Elapsed = elapsed
	return b
}

// Efficiency summarizes a run's energy economics — the quantities a
// storage architect compares across design points (the paper's argument
// is ultimately an IOPS-per-watt argument).
type Efficiency struct {
	IOPS          float64 // completed requests per second
	WattsAvg      float64
	IOPSPerWatt   float64
	EnergyPerIOmJ float64 // millijoules of drive energy per completed I/O
}

// ComputeEfficiency derives the efficiency figures for a run of
// elapsedMs during which `completed` requests finished under the given
// average-power breakdown.
func ComputeEfficiency(b Breakdown, completed uint64, elapsedMs float64) Efficiency {
	var e Efficiency
	if elapsedMs <= 0 || completed == 0 {
		return e
	}
	e.WattsAvg = b.Total()
	e.IOPS = float64(completed) / (elapsedMs / 1000)
	if e.WattsAvg > 0 {
		e.IOPSPerWatt = e.IOPS / e.WattsAvg
		// energy (J) = W * s; per IO in mJ.
		e.EnergyPerIOmJ = e.WattsAvg * (elapsedMs / 1000) / float64(completed) * 1000
	}
	return e
}
