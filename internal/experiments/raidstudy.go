package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/workload"
)

// StripeUnitSectors is the RAID-0 stripe unit used in the §7.3 arrays
// (64 KB, a common array configuration).
const StripeUnitSectors = 128

// RAIDPoint is one point of Figure 8: an array configuration under one
// load intensity.
type RAIDPoint struct {
	Intensity workload.Intensity
	Actuators int // 1 = conventional HC-SD drives
	Drives    int
	P90       float64 // 90th percentile response time, ms
	Power     power.Breakdown
	MeanResp  float64

	// Events and Snap follow experiments.Run: the point's span trace
	// and array snapshot, recorded only when Config.Observe asks.
	Events []obs.Event
	Snap   *obs.Snapshot
}

// Label names the point's drive family the way the paper does.
func (p RAIDPoint) Label() string {
	if p.Actuators == 1 {
		return "HC-SD"
	}
	return fmt.Sprintf("HC-SD-SA(%d)", p.Actuators)
}

// RAIDStudyResult holds all Figure 8 points.
type RAIDStudyResult struct {
	DiskCounts []int
	Families   []int // actuator counts
	Points     []RAIDPoint
}

// Point finds a measured point; ok is false if it was not run.
func (r *RAIDStudyResult) Point(in workload.Intensity, actuators, drives int) (RAIDPoint, bool) {
	for _, p := range r.Points {
		if p.Intensity == in && p.Actuators == actuators && p.Drives == drives {
			return p, true
		}
	}
	return RAIDPoint{}, false
}

// DefaultRAIDDiskCounts returns Figure 8's x-axis.
func DefaultRAIDDiskCounts() []int { return []int{1, 2, 4, 8, 16} }

// DefaultRAIDFamilies returns the drive families of Figure 8:
// conventional, 2-actuator, and 4-actuator.
func DefaultRAIDFamilies() []int { return []int{1, 2, 4} }

// RAIDStudyOpts selects the axes of the §7.3 study. The zero value of
// each field means its paper default, so opts compose piecemeal:
// override just the axis an experiment varies.
type RAIDStudyOpts struct {
	// DiskCounts is the array sizes to sweep (default Figure 8's
	// 1, 2, 4, 8, 16).
	DiskCounts []int
	// Families is the drive families as actuator counts (default
	// conventional, 2- and 4-actuator).
	Families []int
	// Intensities is the load levels (default the paper's three).
	Intensities []workload.Intensity
}

// withDefaults resolves unset axes to the paper's.
func (o RAIDStudyOpts) withDefaults() RAIDStudyOpts {
	if o.DiskCounts == nil {
		o.DiskCounts = DefaultRAIDDiskCounts()
	}
	if o.Families == nil {
		o.Families = DefaultRAIDFamilies()
	}
	if o.Intensities == nil {
		o.Intensities = workload.Intensities()
	}
	return o
}

// RAIDStudy runs the §7.3 evaluation over the paper's default axes:
// RAID-0 arrays of 1..16 drives, built from conventional and intra-disk
// parallel drives, under the synthetic workloads at the paper's three
// load intensities. It is RunRAIDStudy with zero opts.
func RAIDStudy(cfg Config) (*RAIDStudyResult, error) {
	return RunRAIDStudy(cfg, RAIDStudyOpts{})
}

// RunRAIDStudy runs the §7.3 evaluation over the opts' axes (zero-value
// fields fall back to the paper's defaults). The dataset is fixed at
// one drive's capacity so every array size serves the same logical
// space.
func RunRAIDStudy(cfg Config, opts RAIDStudyOpts) (*RAIDStudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	diskCounts, families, intensities := opts.DiskCounts, opts.Families, opts.Intensities
	model := disk.BarracudaES()
	// Dataset: the capacity of a single drive (sectors usable in every
	// array size).
	dataset, err := model.Sectors()
	if err != nil {
		return nil, err
	}

	out := &RAIDStudyResult{DiskCounts: diskCounts, Families: families}

	// Every array simulation of an intensity replays the same
	// deterministic stream, synthesized privately per job as the replay
	// pulls arrivals; the full (intensity, family, array size) cross
	// product fans out through the fleet with points collected in the
	// canonical nested order. Validate each spec up front so a bad
	// config fails before the fan-out.
	for _, in := range intensities {
		if err := workload.Paper(in, dataset).WithRequests(cfg.Requests).Validate(); err != nil {
			return nil, err
		}
	}
	var jobs []fleet.Job[RAIDPoint]
	for _, in := range intensities {
		for _, fam := range families {
			for _, count := range diskCounts {
				in, fam, count := in, fam, count
				jobs = append(jobs, fleet.Job[RAIDPoint]{
					Name: fmt.Sprintf("raid/%s/SA(%d)x%d", in, fam, count),
					Run: func(context.Context, int64) (RAIDPoint, error) {
						eng := simkit.New()
						sink := cfg.Observe.sink()
						members := make([]device.Device, count)
						for i := range members {
							d, err := core.New(eng, model, core.Config{
								Actuators: fam,
								Obs:       sinkOptions(sink, fmt.Sprintf("sa%dx%d/m%d", fam, count, i)),
							})
							if err != nil {
								return RAIDPoint{}, err
							}
							members[i] = d
						}
						layout, err := raid.NewRAID0(count, dataset, StripeUnitSectors)
						if err != nil {
							return RAIDPoint{}, err
						}
						arr, err := raid.NewArray(layout, members)
						if err != nil {
							return RAIDPoint{}, err
						}
						g, err := workload.NewGenerator(workload.Paper(in, dataset).WithRequests(cfg.Requests), cfg.Seed)
						if err != nil {
							return RAIDPoint{}, err
						}
						resp, err := ReplayStream(eng, arr, g)
						if err != nil {
							return RAIDPoint{}, err
						}
						return RAIDPoint{
							Intensity: in,
							Actuators: fam,
							Drives:    count,
							P90:       resp.Percentile(90),
							MeanResp:  resp.Mean(),
							Power:     arr.Power(eng.Now()),
							Events:    cfg.Observe.events(sink),
							Snap:      cfg.Observe.snap(arr),
						}, nil
					},
				})
			}
		}
	}
	points, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	out.Points = points
	return out, nil
}

// BreakEven is one intensity's iso-performance comparison: the smallest
// array of each family whose 90th-percentile response time matches the
// steady-state performance of the conventional array.
type BreakEven struct {
	Intensity workload.Intensity
	TargetP90 float64
	Configs   []BreakEvenConfig
}

// BreakEvenConfig is one family's break-even array.
type BreakEvenConfig struct {
	Actuators int
	Drives    int
	P90       float64
	PowerW    float64
}

// IsoPerformance computes the paper's iso-performance power comparison
// from the study's points: the target is the conventional family's
// steady-state (largest-array) P90; each family's break-even point is
// the smallest array within 10% of that target.
func (r *RAIDStudyResult) IsoPerformance() []BreakEven {
	byIntensity := map[workload.Intensity]bool{}
	var order []workload.Intensity
	for _, p := range r.Points {
		if !byIntensity[p.Intensity] {
			byIntensity[p.Intensity] = true
			order = append(order, p.Intensity)
		}
	}
	var out []BreakEven
	for _, in := range order {
		maxCount := r.DiskCounts[len(r.DiskCounts)-1]
		steady, ok := r.Point(in, 1, maxCount)
		if !ok {
			continue
		}
		be := BreakEven{Intensity: in, TargetP90: steady.P90}
		for _, fam := range r.Families {
			for _, count := range r.DiskCounts {
				p, ok := r.Point(in, fam, count)
				if !ok {
					continue
				}
				if p.P90 <= steady.P90*1.10 {
					be.Configs = append(be.Configs, BreakEvenConfig{
						Actuators: fam,
						Drives:    count,
						P90:       p.P90,
						PowerW:    p.Power.Total(),
					})
					break
				}
			}
		}
		out = append(out, be)
	}
	return out
}
