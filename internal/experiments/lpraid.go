package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LPRAIDOpts configures the partitioned-array scale scenario. The zero
// value is the canonical run: a 64-drive RAID-0 of 2-actuator drives
// under the paper's light per-drive load (scaled up by the drive count),
// on all cores.
type LPRAIDOpts struct {
	// Drives is the array width (default 64). Unlike the Figure 8 study,
	// which caps at 16 drives on one event loop, this scenario exists to
	// exercise arrays too wide for a single timeline.
	Drives int
	// Actuators per member drive (default 2).
	Actuators int
	// Intensity is the per-drive load level (default Light). The array's
	// arrival rate is this intensity's rate times Drives, so per-member
	// load stays constant as the array widens.
	Intensity workload.Intensity
	// Workers is the partitioned engine's worker-goroutine count,
	// passed straight to par.Options.Workers: zero means all cores.
	// Results are byte-identical at every setting.
	Workers int
	// Degraded turns the run into the §8 fault scenario on the
	// partitioned engine: the layout becomes RAID-5 (the array needs
	// redundancy to survive), one member dies mid-run, and a rebuild
	// sweeps its extent back over the member links under the same
	// foreground load. Requires Drives >= 3.
	Degraded bool
	// RebuildDepth is the degraded scenario's chunk pipeline depth
	// (default 4; ignored when Degraded is false).
	RebuildDepth int
}

func (o LPRAIDOpts) withDefaults() LPRAIDOpts {
	if o.Drives == 0 {
		o.Drives = 64
	}
	if o.Actuators == 0 {
		o.Actuators = 2
	}
	if o.RebuildDepth == 0 {
		o.RebuildDepth = 4
	}
	return o
}

// LPRAIDResult is one partitioned-array run.
type LPRAIDResult struct {
	Drives    int
	Actuators int
	Intensity workload.Intensity
	// Windows is the partitioned engine's synchronization-barrier count —
	// the cost side of the lookahead trade (see simkit/par). BusyLPs is
	// the cumulative count of logical processes with work per window;
	// BusyLPs/Windows is the simulation's available parallelism — the
	// speedup ceiling a worker pool can exploit on a multi-core machine.
	// Both are engine invariants, identical at every worker count.
	Windows   uint64
	BusyLPs   uint64
	Resp      *stats.Sample
	Power     power.Breakdown
	ElapsedMs float64

	// Degraded-scenario measurements (zero when Opts.Degraded is off):
	// the sectors the rebuild restored onto the replacement, the
	// simulated time the member returned to service, and the count of
	// successfully applied fault-plan events.
	Degraded      bool
	CopiedSectors int64
	RebuildDoneMs float64
	Injected      uint64

	Events []obs.Event
	Snap   *obs.Snapshot
}

// LPRAID replays the paper's synthetic workload against a partitioned
// RAID-0 array: the controller and every member drive live on their own
// logical process, coupled through point-to-point links whose minimum
// latency (bus.DefaultLink's arbitration overhead) is the conservative
// lookahead that lets member timelines advance concurrently. This is
// the one experiment whose simulation can run on multiple cores, which
// buys wall-clock speedup on arrays too wide for one event loop. Results
// are byte-identical at every worker count — only elapsed real time
// changes.
func LPRAID(cfg Config, opts LPRAIDOpts) (*LPRAIDResult, error) {
	res, _, err := lpraid(cfg, opts)
	return res, err
}

// lpraid is LPRAID that also returns the partitioned engine it ran on.
func lpraid(cfg Config, opts LPRAIDOpts) (*LPRAIDResult, *par.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	if opts.Drives < 1 {
		return nil, nil, fmt.Errorf("experiments: LPRAID drives %d", opts.Drives)
	}

	model := disk.BarracudaES()
	memberSectors, err := model.Sectors()
	if err != nil {
		return nil, nil, err
	}

	// The healthy scale run stripes without redundancy; the degraded
	// scenario needs a layout that can reconstruct, so it runs RAID-5
	// over the same member set.
	var layout raid.Layout
	if opts.Degraded {
		if opts.Drives < 3 {
			return nil, nil, fmt.Errorf("experiments: LPRAID degraded needs >= 3 drives, got %d", opts.Drives)
		}
		layout, err = raid.NewRAID5(opts.Drives, memberSectors, StripeUnitSectors)
	} else {
		layout, err = raid.NewRAID0(opts.Drives, memberSectors, StripeUnitSectors)
	}
	if err != nil {
		return nil, nil, err
	}
	pe := par.New(opts.Drives+1, par.Options{Workers: opts.Workers})
	sink := cfg.Observe.sink()
	arr, err := raid.NewPartitioned(pe, layout, bus.DefaultLink(), int64(model.Geom.SectorBytes),
		func(s simkit.Scheduler, i int) (device.Device, error) {
			return core.New(s, model, core.Config{
				Actuators: opts.Actuators,
				Obs:       lpSinkOptions(pe.LP(1+i), sink, fmt.Sprintf("lpraid/m%d", i)),
			})
		})
	if err != nil {
		return nil, nil, err
	}

	// Offered load scales with the array: Drives times the intensity's
	// per-drive rate, addressed across the whole array capacity.
	spec := workload.Paper(opts.Intensity, layout.Capacity()).WithRequests(cfg.Requests)
	spec.MeanInterArrivalMs /= float64(opts.Drives)
	g, err := workload.NewGenerator(spec, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}

	var inj *fault.Injector
	if opts.Degraded {
		// One member dies mid-run and is rebuilt under load, on the
		// degradation study's timeline fractions. The injector lives on
		// the controller LP — the only place fail/rebuild calls are
		// legal on a partitioned array.
		durationMs := spec.MeanInterArrivalMs * float64(cfg.Requests)
		plan, err := fault.Compile(fault.Spec{Death: &fault.Death{
			AtMs:         degradationDeathFrac * durationMs,
			Member:       opts.Drives / 2,
			RebuildAtMs:  degradationRebuildFrac * durationMs,
			ChunkSectors: RebuildChunkSectors(layout.(raid.MemberSizer).MemberExtent()),
			Depth:        opts.RebuildDepth,
		}}, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		inj, err = fault.NewInjector(pe.LP(0), plan, fault.Targets{Array: arr},
			lpSinkOptions(pe.LP(0), sink, "lpraid/fault"))
		if err != nil {
			return nil, nil, err
		}
		inj.Schedule()
	}

	runner := pe.Runner(0)
	resp, err := ReplayStream(runner, arr, g)
	if err != nil {
		return nil, nil, err
	}
	elapsed := runner.Now()
	res := &LPRAIDResult{
		Drives:    opts.Drives,
		Actuators: opts.Actuators,
		Intensity: opts.Intensity,
		Windows:   pe.Windows(),
		BusyLPs:   pe.BusyLPs(),
		Resp:      resp,
		Power:     arr.Power(elapsed),
		ElapsedMs: elapsed,
		Degraded:  opts.Degraded,
		Events:    cfg.Observe.events(sink),
		Snap:      cfg.Observe.snap(arr),
	}
	if inj != nil {
		res.CopiedSectors = inj.CopiedSectors()
		res.RebuildDoneMs = inj.RebuildDoneMs()
		res.Injected = inj.Injected()
		if res.Snap != nil {
			res.Snap.Children = append(res.Snap.Children, inj.Snapshot())
		}
	}
	return res, pe, nil
}
