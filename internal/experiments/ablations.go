package experiments

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Ablations isolate the design choices the reproduction depends on:
// the disk scheduler, the on-board cache size (the paper's §7.1 "64 MB
// changes nothing" check), the relaxed parallel designs from the
// technical report, and the diagonal angular mounting of the arm
// assemblies (which this implementation found to be the load-bearing
// mechanism behind the rotational-latency reduction).

// unobservedRun validates the config and runs one unobserved drive on
// the workload's HC-SD stream (see hcsdRun), as every ablation case and
// AltPower's baseline do. Each run synthesizes the stream afresh: the
// same (spec, cfg) always yields the identical stream, so every case
// replays the same requests without any case holding a full trace.
func unobservedRun(spec trace.WorkloadSpec, cfg Config, model disk.Model, opts disk.Options, label string) (Run, error) {
	if err := cfg.Validate(); err != nil {
		return Run{}, err
	}
	cfg.Observe = Observe{}
	return hcsdRun(spec, cfg, model, opts, label)
}

// SchedulerAblation runs the HC-SD under FCFS, SSTF, C-LOOK and SPTF.
// The paper uses SPTF (§7.2); this quantifies how much that choice buys.
func SchedulerAblation(spec trace.WorkloadSpec, cfg Config) ([]Run, error) {
	var out []Run
	for _, p := range []sched.Policy{sched.FCFS, sched.SSTF, sched.CLOOK, sched.SPTF} {
		scfg := disk.DefaultSchedConfig()
		scfg.Policy = p
		r, err := unobservedRun(spec, cfg, disk.BarracudaES(), disk.Options{Sched: &scfg}, p.String())
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CacheAblation reruns the HC-SD with its stock 8 MB buffer and with the
// paper's 64 MB what-if (§7.1 found the larger cache changes little for
// the random-I/O workloads).
func CacheAblation(spec trace.WorkloadSpec, cfg Config) ([]Run, error) {
	var out []Run
	for _, mb := range []int64{8, 64} {
		model := disk.BarracudaES()
		model.CacheBytes = mb << 20
		r, err := unobservedRun(spec, cfg, model, disk.Options{}, fmt.Sprintf("%dMB cache", mb))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RelaxedDesignAblation compares the paper's base HC-SD-SA(n) against
// the two relaxed designs of the technical report: multiple arms in
// motion, and multiple concurrent data channels.
func RelaxedDesignAblation(spec trace.WorkloadSpec, cfg Config, actuators int) ([]Run, error) {
	cases := []struct {
		label string
		opts  disk.Options
	}{
		{fmt.Sprintf("SA(%d) base", actuators), disk.Options{Actuators: actuators}},
		{fmt.Sprintf("SA(%d)+multi-arm", actuators), disk.Options{Actuators: actuators, MultiArmMotion: true}},
		{fmt.Sprintf("SA(%d)+%d-channel", actuators, actuators), disk.Options{Actuators: actuators, Channels: actuators}},
	}
	var out []Run
	for _, c := range cases {
		r, err := unobservedRun(spec, cfg, disk.BarracudaES(), c.opts, c.label)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// PlacementAblation compares the diagonal (evenly spread) angular
// mounting of the arm assemblies against co-located mounting (all arms
// at the same angular position). With co-located arms a longer seek is
// exactly repaid by a shorter rotational wait, so extra actuators buy
// almost nothing — the spread mounting is what shortens rotational
// latency (the paper's Figure 1 draws the assemblies diagonally).
func PlacementAblation(spec trace.WorkloadSpec, cfg Config, actuators int) (spread, colocated Run, err error) {
	spread, err = unobservedRun(spec, cfg, disk.BarracudaES(), disk.Options{Actuators: actuators},
		fmt.Sprintf("SA(%d) diagonal", actuators))
	if err != nil {
		return Run{}, Run{}, err
	}
	colocated, err = unobservedRun(spec, cfg, disk.BarracudaES(), disk.Options{
		Actuators:      actuators,
		AngularOffsets: make([]float64, actuators),
	}, fmt.Sprintf("SA(%d) co-located", actuators))
	if err != nil {
		return Run{}, Run{}, err
	}
	return spread, colocated, nil
}
