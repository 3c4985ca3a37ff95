package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Degradation-study scenario constants. The timeline is expressed as
// fractions of the workload's nominal duration (mean inter-arrival ×
// request count), so scenarios scale with -requests while the fault
// plan stays a pure function of (spec, seed).
const (
	degradationArms = 4 // the DASH configuration under test: HC-SD-SA(4)

	// RAID-5 rebuild scenario: a 4-member array of HC-SD drives sized
	// to hold the workload's HC-SD address space.
	degradationMembers      = 4
	degradationDeadMember   = 2
	degradationDefectMember = 0
	degradationSectorErrors = 64
	degradationSpareSectors = 4096

	// Timeline fractions of the nominal duration.
	degradationErrorStartFrac = 0.05
	degradationDriftFrac      = 0.25
	degradationArmFrac1       = 0.25
	degradationArmFrac2       = 0.50
	degradationDeathFrac      = 0.35
	degradationRebuildFrac    = 0.45

	// SMART scenario: the sentry polls 64 times over the run; the
	// indicted arm's seek-error rate drifts from its ~0.002 baseline to
	// the 0.05 trip threshold in roughly 15 polls, so the
	// deconfiguration lands near mid-run at any request count.
	degradationSentryPolls = 64
	degradationDriftRate   = 0.004
	degradationDriftArm    = 2
)

// RebuildChunkSectors sizes the rebuild chunks of every degraded
// scenario (the degradation study, LPRAID and idpsim -degraded): the
// member extent is swept in 256 chunks, so the simulated event count is
// independent of the drive size.
func RebuildChunkSectors(extent int64) int64 {
	const chunks = 256
	return (extent + chunks - 1) / chunks
}

// degradationDepths are the rebuild queue depths the study sweeps:
// serialized, moderately and deeply overlapped chunk pipelines.
var degradationDepths = [...]int{1, 4, 16}

// memberDeath is the member-death timeline of every degraded scenario:
// the member dies at degradationDeathFrac of the nominal duration and
// is rebuilt from degradationRebuildFrac, its extent swept in
// RebuildChunkSectors chunks at the given pipeline depth.
func memberDeath(durationMs float64, member int, extent int64, depth int) *fault.Death {
	return &fault.Death{
		AtMs:         degradationDeathFrac * durationMs,
		Member:       member,
		RebuildAtMs:  degradationRebuildFrac * durationMs,
		ChunkSectors: RebuildChunkSectors(extent),
		Depth:        depth,
	}
}

// DegradationRun is one scenario's measurement: the usual run sample
// plus the degradation-specific quantities (surviving actuators, grown
// defects, rebuild progress).
type DegradationRun struct {
	Run

	// HealthyArms/TotalArms report the DASH drive's actuator state at
	// the end of the run (TotalArms 0 for the array scenarios).
	HealthyArms int
	TotalArms   int

	// RebuildDepth is the rebuild scenario's chunk pipeline depth
	// (0 for the DASH scenarios).
	RebuildDepth int
	// Reallocated counts the grown defects injected into the surviving
	// member's defect table.
	Reallocated uint64
	// CopiedSectors and RebuildDoneMs report the rebuild sweep: the
	// sectors restored onto the replacement and the simulated time the
	// member returned to service (0 when no rebuild ran or finished).
	CopiedSectors int64
	RebuildDoneMs float64
	// Injected counts successfully applied fault-plan events.
	Injected uint64
}

// DegradationResult holds one workload's §8 study: scenarios in
// presentation order (healthy, SMART-driven deconfiguration, direct
// double arm fault, then member-death + rebuild per depth).
type DegradationResult struct {
	Workload string
	Runs     []DegradationRun
}

// hcsdTotalSectors reports the size of the workload's HC-SD address
// space: the sum of the original array members' capacities (the
// migration of §7.1 populates the high-capacity drive in disk order).
func hcsdTotalSectors(spec trace.WorkloadSpec) (int64, error) {
	model, err := MDDriveModel(spec)
	if err != nil {
		return 0, err
	}
	capacity, err := model.Sectors()
	if err != nil {
		return 0, err
	}
	return capacity * int64(spec.Disks), nil
}

// degradationRun assembles the common measurement of one scenario.
func degradationRun(label string, dev device.Device, resp *stats.Sample,
	eng simkit.Scheduler, sink *obs.MemorySink, inj *fault.Injector, ob Observe) DegradationRun {
	r := DegradationRun{Run: Run{
		Label:     label,
		Resp:      resp,
		RotLat:    &stats.Sample{},
		Power:     dev.Power(eng.Now()),
		ElapsedMs: eng.Now(),
		Completed: uint64(resp.Count()),
		Events:    ob.events(sink),
	}}
	if inj != nil {
		r.CopiedSectors = inj.CopiedSectors()
		r.RebuildDoneMs = inj.RebuildDoneMs()
		r.Injected = inj.Injected()
	}
	if ob.Metrics {
		if in, ok := dev.(device.Instrumented); ok {
			snap := in.Snapshot()
			if inj != nil {
				snap.Children = append(snap.Children, inj.Snapshot())
			}
			r.Snap = &snap
		}
	}
	return r
}

// DegradationStudy runs the paper's §8 graceful-degradation scenarios
// for one workload, fanned out through the fleet:
//
//   - healthy: the HC-SD-SA(4) baseline.
//   - smart-deconfig: one arm's seek-error rate drifts (a compiled
//     fault-plan onset); the SMART sentry predicts the failure and
//     deconfigures the arm mid-run — the full cause→effect loop.
//   - arm-fault-x2: two arms deconfigured directly at planned times,
//     the worst surviving DASH configuration.
//   - rebuild(d=N): a RAID-5 of four HC-SD drives serving the same
//     stream; one member accumulates latent sector errors, another dies
//     and is rebuilt under foreground load at chunk depth N, for each
//     of degradationDepths.
//
// Every scenario derives all randomness from cfg.Seed, so the study is
// byte-identical at any Parallelism.
func DegradationStudy(spec trace.WorkloadSpec, cfg Config) (*DegradationResult, error) {
	if err := validateStudy(spec, cfg); err != nil {
		return nil, err
	}
	durationMs := spec.MeanInterArrivalMs * float64(cfg.Requests)
	total, err := hcsdTotalSectors(spec)
	if err != nil {
		return nil, err
	}
	// Size the RAID-5 members so the (members-1)-wide data capacity
	// covers the HC-SD address space, extents aligned to the stripe
	// unit.
	per := (total + int64(degradationMembers-1) - 1) / int64(degradationMembers-1)
	per = (per + StripeUnitSectors - 1) / StripeUnitSectors * StripeUnitSectors

	// dash is one DASH scenario: the SA(4) drive serving the workload's
	// HC-SD stream. arm binds the scenario's faults to the drive before
	// the replay and returns their injector; nil arm runs fault-free.
	dash := func(label string,
		arm func(eng *simkit.Engine, d *core.ParallelDrive, sink *obs.MemorySink) (*fault.Injector, error),
	) fleet.Job[DegradationRun] {
		return fleet.Job[DegradationRun]{Name: spec.Name + "/degradation/" + label, Run: func(context.Context, int64) (DegradationRun, error) {
			eng := simkit.New()
			sink := cfg.Observe.sink()
			d, err := core.New(eng, disk.BarracudaES(), core.Config{
				Actuators: degradationArms, Obs: sinkOptions(sink, label),
			})
			if err != nil {
				return DegradationRun{}, err
			}
			var inj *fault.Injector
			if arm != nil {
				if inj, err = arm(eng, d, sink); err != nil {
					return DegradationRun{}, err
				}
			}
			s, err := hcsdStream(spec, cfg)
			if err != nil {
				return DegradationRun{}, err
			}
			resp, err := ReplayStream(eng, d, s)
			if err != nil {
				return DegradationRun{}, err
			}
			r := degradationRun(label, d, resp, eng, sink, inj, cfg.Observe)
			r.HealthyArms, r.TotalArms = d.HealthyArms(), degradationArms
			return r, nil
		}}
	}

	jobs := []fleet.Job[DegradationRun]{
		dash("healthy", nil),
		dash("smart-deconfig", func(eng *simkit.Engine, d *core.ParallelDrive, sink *obs.MemorySink) (*fault.Injector, error) {
			monitors := make([]*smart.Monitor, degradationArms)
			for i := range monitors {
				monitors[i] = smart.NewMonitor(cfg.Seed+int64(100+i), nil)
			}
			plan, err := fault.Compile(fault.Spec{Drifts: []fault.Drift{{
				AtMs:      degradationDriftFrac * durationMs,
				Component: degradationDriftArm,
				Attr:      smart.SeekErrorRate,
				Rate:      degradationDriftRate,
			}}}, cfg.Seed)
			if err != nil {
				return nil, err
			}
			inj, err := fault.NewInjector(eng, plan, fault.Targets{Monitors: monitors},
				sinkOptions(sink, "smart-deconfig/fault"))
			if err != nil {
				return nil, err
			}
			inj.Schedule()
			sentry, err := smart.NewSentry(eng, monitors, durationMs/degradationSentryPolls,
				func(i int) {
					if err := d.FailArm(i); err == nil {
						inj.React(i)
					}
				})
			if err != nil {
				return nil, err
			}
			sentry.Start(durationMs)
			return inj, nil
		}),
		dash("arm-fault-x2", func(eng *simkit.Engine, d *core.ParallelDrive, sink *obs.MemorySink) (*fault.Injector, error) {
			plan, err := fault.Compile(fault.Spec{ArmFaults: []fault.ArmFault{
				{AtMs: degradationArmFrac1 * durationMs, Arm: 1},
				{AtMs: degradationArmFrac2 * durationMs, Arm: 3},
			}}, cfg.Seed)
			if err != nil {
				return nil, err
			}
			inj, err := fault.NewInjector(eng, plan, fault.Targets{Arms: d},
				sinkOptions(sink, "arm-fault-x2/fault"))
			if err != nil {
				return nil, err
			}
			inj.Schedule()
			return inj, nil
		}),
	}
	for _, depth := range degradationDepths {
		depth := depth
		label := fmt.Sprintf("rebuild(d=%d)", depth)
		jobs = append(jobs, fleet.Job[DegradationRun]{
			Name: fmt.Sprintf("%s/degradation/%s", spec.Name, label),
			Run: func(context.Context, int64) (DegradationRun, error) {
				eng := simkit.New()
				sink := cfg.Observe.sink()
				dt, err := defect.NewTable(per+degradationSpareSectors, degradationSpareSectors)
				if err != nil {
					return DegradationRun{}, err
				}
				members := make([]device.Device, degradationMembers)
				for i := range members {
					opts := disk.Options{Obs: sinkOptions(sink, fmt.Sprintf("%s/m%d", label, i))}
					if i == degradationDefectMember {
						opts.Defects = dt
					}
					d, err := disk.New(eng, disk.BarracudaES(), opts)
					if err != nil {
						return DegradationRun{}, err
					}
					members[i] = d
				}
				layout, err := raid.NewRAID5(degradationMembers, per, StripeUnitSectors)
				if err != nil {
					return DegradationRun{}, err
				}
				arr, err := raid.NewArray(layout, members)
				if err != nil {
					return DegradationRun{}, err
				}
				plan, err := fault.Compile(fault.Spec{
					SectorErrors: fault.SectorErrors{
						Count:       degradationSectorErrors,
						StartMs:     degradationErrorStartFrac * durationMs,
						EndMs:       degradationDeathFrac * durationMs,
						UserSectors: per,
					},
					Death: memberDeath(durationMs, degradationDeadMember, per, depth),
				}, cfg.Seed)
				if err != nil {
					return DegradationRun{}, err
				}
				inj, err := fault.NewInjector(eng, plan, fault.Targets{Defects: dt, Array: arr},
					sinkOptions(sink, label+"/fault"))
				if err != nil {
					return DegradationRun{}, err
				}
				inj.Schedule()
				s, err := hcsdStream(spec, cfg)
				if err != nil {
					return DegradationRun{}, err
				}
				resp, err := ReplayStream(eng, arr, s)
				if err != nil {
					return DegradationRun{}, err
				}
				r := degradationRun(label, arr, resp, eng, sink, inj, cfg.Observe)
				r.RebuildDepth = depth
				r.Reallocated = dt.Reallocated()
				return r, nil
			},
		})
	}
	runs, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &DegradationResult{Workload: spec.Name, Runs: runs}, nil
}

// WriteDegradationTable renders the §8 study: per-scenario response
// statistics next to the degradation state each scenario ended in.
func WriteDegradationTable(w io.Writer, r *DegradationResult) {
	fmt.Fprintf(w, "Degradation study (%s): graceful degradation under injected faults (§8)\n", r.Workload)
	fmt.Fprintf(w, "%-16s %9s %9s %10s %6s %8s %12s %13s\n",
		"scenario", "mean(ms)", "p90(ms)", "completed", "arms", "realloc", "copied", "rebuilt@ms")
	for _, run := range r.Runs {
		arms, realloc, copied, done := "-", "-", "-", "-"
		if run.TotalArms > 0 {
			arms = fmt.Sprintf("%d/%d", run.HealthyArms, run.TotalArms)
		}
		if run.RebuildDepth > 0 {
			realloc = fmt.Sprintf("%d", run.Reallocated)
			copied = fmt.Sprintf("%d", run.CopiedSectors)
			if run.RebuildDoneMs > 0 {
				done = fmt.Sprintf("%.1f", run.RebuildDoneMs)
			}
		}
		fmt.Fprintf(w, "%-16s %9.2f %9.2f %10d %6s %8s %12s %13s\n",
			run.Label, run.Resp.Mean(), run.Resp.Percentile(90), run.Completed,
			arms, realloc, copied, done)
	}
}
