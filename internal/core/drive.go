package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/simkit"
)

// Config describes an intra-disk parallel drive: a base drive model
// extended with extra arm assemblies and, optionally, the relaxed
// parallelism variants from the paper's technical report. It is the
// drive engine's option set (see disk.Options), with Actuators required.
type Config = disk.Options

// ParallelDrive is an intra-disk parallel drive: a single spindle and
// platter stack accessed by several independently positioned arm
// assemblies. In the paper's base HC-SD-SA(n) design only one arm may be
// in motion and only one head may transfer at a time, so service remains
// serialized; the benefit is that the SPTF scheduler dispatches whichever
// idle arm minimizes the positioning time of the chosen request. The
// engine is disk.Drive; ParallelDrive adds the design point's taxonomy
// and reports its snapshot under the parallel-drive labels.
type ParallelDrive struct {
	*disk.Drive
	taxonomy DASH
}

var _ device.Device = (*ParallelDrive)(nil)

// New attaches a parallel drive built from the base model to the
// scheduler — the sequential engine or one logical process of the
// partitioned engine.
func New(eng simkit.Scheduler, model disk.Model, cfg Config) (*ParallelDrive, error) {
	if cfg.Actuators <= 0 {
		return nil, fmt.Errorf("core: Actuators %d must be positive", cfg.Actuators)
	}
	d, err := disk.New(eng, model, cfg)
	if err != nil {
		return nil, err
	}
	t := SA(cfg.Actuators)
	if cfg.HeadsPerArm > 0 {
		t.H = cfg.HeadsPerArm
	}
	return &ParallelDrive{Drive: d, taxonomy: t}, nil
}

// NewSA builds the paper's HC-SD-SA(n) design point on the given base
// model: n actuators, single arm in motion, single channel, SPTF.
func NewSA(eng simkit.Scheduler, model disk.Model, n int) (*ParallelDrive, error) {
	return New(eng, model, Config{Actuators: n})
}

// Taxonomy reports the drive's DASH taxonomy point.
func (d *ParallelDrive) Taxonomy() DASH { return d.taxonomy }

// Snapshot captures the drive's statistics as the uniform obs surface,
// labeled "parallel-drive". Beyond the typed fields it reports per-arm
// service counts ("armN_serviced"), the healthy-arm count, the
// background queue gauge ("bg_queue_len") and the mechanical-phase
// histograms.
func (d *ParallelDrive) Snapshot() obs.Snapshot {
	s := d.Drive.Snapshot()
	s.Kind = "parallel-drive"
	s.Counters = make(map[string]uint64, d.Actuators()+1)
	for i, n := range d.ServicedByArm() {
		s.Counters[fmt.Sprintf("arm%d_serviced", i)] = n
	}
	s.Counters["healthy_arms"] = uint64(d.HealthyArms())
	return s
}

var _ device.Instrumented = (*ParallelDrive)(nil)
