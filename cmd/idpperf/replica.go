package main

import (
	"context"
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run rebuilds every simulation the experiments drivers run,
// from the same public constructors in the same order, with each layer
// wrapped in spans. Each function below mirrors one driver of
// internal/experiments; the traced pass must reproduce the untraced
// pass's output digest byte for byte, which proves the rebuilds and the
// drivers simulate the same thing and that the wrappers perturb nothing.

// The degraded LPRAID scenario's fault timeline, as fractions of the
// nominal run and in rebuild chunks (experiments' degradation study).
const (
	lpraidDeathFrac     = 0.35
	lpraidRebuildFrac   = 0.45
	lpraidRebuildChunks = 256
	lpraidRebuildDepth  = 4
	lpraidActuators     = 2
)

// runJobs is fleet.Run with per-job and fan-out timing for the fleet
// layer's metrics.
func runJobs[T any](c *collector, jobs []fleet.Job[T], opts fleet.Options) ([]T, error) {
	durs := make([]int64, len(jobs))
	timed := make([]fleet.Job[T], len(jobs))
	for i, j := range jobs {
		i, j := i, j
		timed[i] = fleet.Job[T]{Name: j.Name, Run: func(ctx context.Context, seed int64) (T, error) {
			start := nanotime()
			res, err := j.Run(ctx, seed)
			durs[i] = nanotime() - start
			return res, err
		}}
	}
	start := nanotime()
	res, err := fleet.Run(timed, opts)
	c.fleetWallNs += nanotime() - start
	for _, d := range durs {
		c.jobMs = append(c.jobMs, float64(d)/1e6)
		c.jobNs += d
	}
	return res, err
}

// job runs one simulation body under its own tracer, inside a root
// span: what the body does outside the wrapped layers (building
// devices, assembling results) is the job's self time.
func job[T any](c *collector, name string, body func(t *tracer) (T, error)) (T, error) {
	t := c.tracer(name)
	sp := t.begin(kJob)
	res, err := body(t)
	t.end(kJob, sp)
	return res, err
}

// seqEngine is a traced sequential engine: the runner the replay driver
// schedules arrivals on, and the scheduler a device of the given event
// kind attaches to.
type seqEngine struct {
	eng *simkit.Engine
	run *runnerWrap
	t   *tracer
}

func newSeqEngine(t *tracer) *seqEngine {
	eng := simkit.New()
	return &seqEngine{eng: eng, run: traceRunner(eng, t, kRun), t: t}
}

func (e *seqEngine) sched(ev kind) simkit.Scheduler { return &schedWrap{inner: e.eng, t: e.t, ev: ev} }

// replay runs the replay driver on the traced engine and records the
// engine's counters.
func (e *seqEngine) replay(c *collector, top device.Device, s trace.Stream) (*stats.Sample, error) {
	resp, err := experiments.ReplayStream(e.run, top, s)
	c.noteEngine(e.eng.Fired(), e.eng.MaxPending(), uint64(resp.Count()))
	return resp, err
}

// hcsdStream mirrors the drivers' per-job HC-SD request stream.
func hcsdStream(t *tracer, spec trace.WorkloadSpec, cfg experiments.Config) (trace.Stream, error) {
	offsets, err := experiments.HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec.WithRequests(cfg.Requests), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return trace.RemapStream(&streamWrap{inner: g, t: t, k: kGen}, offsets), nil
}

func top(d device.Device, t *tracer, submit kind) *devWrap {
	return &devWrap{inner: d, t: t, submit: submit, done: kReplayEnd, top: true}
}

// limitStudy mirrors experiments.LimitStudy.
func limitStudy(c *collector, spec trace.WorkloadSpec, cfg experiments.Config) (*experiments.LimitStudyResult, error) {
	jobs := []fleet.Job[experiments.Run]{
		{Name: spec.Name + "/MD", Run: func(context.Context, int64) (experiments.Run, error) {
			return job(c, spec.Name+"/MD", func(t *tracer) (experiments.Run, error) {
				e := newSeqEngine(t)
				model, err := experiments.MDDriveModel(spec)
				if err != nil {
					return experiments.Run{}, err
				}
				members := make([]device.Device, spec.Disks)
				drives := make([]*disk.Drive, spec.Disks)
				for i := range members {
					d, err := disk.New(e.sched(kDiskEvent), model, disk.Options{})
					if err != nil {
						return experiments.Run{}, err
					}
					drives[i] = d
					members[i] = &devWrap{inner: d, t: t, submit: kDiskSubmit, done: kRaidEnd}
				}
				router, err := raid.NewRouteByDisk(members)
				if err != nil {
					return experiments.Run{}, err
				}
				g, err := trace.NewGenerator(spec.WithRequests(cfg.Requests), cfg.Seed)
				if err != nil {
					return experiments.Run{}, err
				}
				resp, err := e.replay(c, top(router, t, kRaidSubmit), &streamWrap{inner: g, t: t, k: kGen})
				if err != nil {
					return experiments.Run{}, err
				}
				for _, d := range drives {
					c.noteDevice(d)
				}
				return experiments.Run{
					Label:     "MD",
					Resp:      resp,
					RotLat:    &stats.Sample{},
					Power:     router.Power(e.eng.Now()),
					ElapsedMs: e.eng.Now(),
					Completed: uint64(resp.Count()),
				}, nil
			})
		}},
		{Name: spec.Name + "/HC-SD", Run: func(context.Context, int64) (experiments.Run, error) {
			return job(c, spec.Name+"/HC-SD", func(t *tracer) (experiments.Run, error) {
				e := newSeqEngine(t)
				rot := &stats.Sample{}
				hc, err := disk.New(e.sched(kDiskEvent), disk.BarracudaES(), disk.Options{
					OnService: func(s, r, x float64) { rot.Add(r) },
				})
				if err != nil {
					return experiments.Run{}, err
				}
				s, err := hcsdStream(t, spec, cfg)
				if err != nil {
					return experiments.Run{}, err
				}
				resp, err := e.replay(c, top(hc, t, kDiskSubmit), s)
				if err != nil {
					return experiments.Run{}, err
				}
				c.noteDevice(hc)
				return experiments.Run{
					Label:     "HC-SD",
					Resp:      resp,
					RotLat:    rot,
					Power:     hc.Power(e.eng.Now()),
					ElapsedMs: e.eng.Now(),
					Completed: uint64(resp.Count()),
				}, nil
			})
		}},
	}
	runs, err := runJobs(c, jobs, fleetOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &experiments.LimitStudyResult{Workload: spec.Name, MD: runs[0], HCSD: runs[1]}, nil
}

// bottleneck mirrors experiments.Bottleneck.
func bottleneck(c *collector, spec trace.WorkloadSpec, cfg experiments.Config) (*experiments.BottleneckResult, error) {
	cases := experiments.Figure4Cases()
	jobs := make([]fleet.Job[experiments.Run], len(cases))
	for i, sc := range cases {
		sc := sc
		name := spec.Name + "/" + sc.Label
		jobs[i] = fleet.Job[experiments.Run]{Name: name, Run: func(context.Context, int64) (experiments.Run, error) {
			return job(c, name, func(t *tracer) (experiments.Run, error) {
				e := newSeqEngine(t)
				d, err := disk.New(e.sched(kDiskEvent), disk.BarracudaES(), disk.Options{
					SeekScale: sc.SeekScale,
					RotScale:  sc.RotScale,
				})
				if err != nil {
					return experiments.Run{}, err
				}
				s, err := hcsdStream(t, spec, cfg)
				if err != nil {
					return experiments.Run{}, err
				}
				resp, err := e.replay(c, top(d, t, kDiskSubmit), s)
				if err != nil {
					return experiments.Run{}, err
				}
				c.noteDevice(d)
				return experiments.Run{
					Label:     sc.Label,
					Resp:      resp,
					RotLat:    &stats.Sample{},
					Power:     d.Power(e.eng.Now()),
					ElapsedMs: e.eng.Now(),
					Completed: uint64(resp.Count()),
				}, nil
			})
		}}
	}
	runs, err := runJobs(c, jobs, fleetOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &experiments.BottleneckResult{Workload: spec.Name, Cases: runs}, nil
}

// saRun mirrors the drivers' SA(n) design-point job on a prepared
// stream (experiments' saRunOnStream).
func saRun(c *collector, t *tracer, s trace.Stream, actuators int, rpm float64) (experiments.Run, error) {
	model := disk.BarracudaES()
	label := fmt.Sprintf("HC-SD-SA(%d)", actuators)
	if rpm > 0 && rpm != model.RPM {
		model = model.WithRPM(rpm)
		label = fmt.Sprintf("SA(%d)/%d", actuators, int(rpm))
	}
	e := newSeqEngine(t)
	rot := &stats.Sample{}
	d, err := core.New(e.sched(kCoreEvent), model, core.Config{
		Actuators: actuators,
		OnService: func(s, r, x float64) { rot.Add(r) },
	})
	if err != nil {
		return experiments.Run{}, err
	}
	resp, err := e.replay(c, top(d, t, kCoreSubmit), s)
	if err != nil {
		return experiments.Run{}, err
	}
	c.noteDevice(d)
	return experiments.Run{
		Label:     label,
		Resp:      resp,
		RotLat:    rot,
		Power:     d.Power(e.eng.Now()),
		ElapsedMs: e.eng.Now(),
		Completed: uint64(resp.Count()),
	}, nil
}

// saJobs builds one SA design-point job per (actuators, rpm) pair.
func saJobs(c *collector, spec trace.WorkloadSpec, cfg experiments.Config, points [][2]float64) []fleet.Job[experiments.Run] {
	jobs := make([]fleet.Job[experiments.Run], len(points))
	for i, p := range points {
		arms, rpm := int(p[0]), p[1]
		name := fmt.Sprintf("%s/SA(%d)", spec.Name, arms)
		if rpm > 0 {
			name += fmt.Sprintf("/%d", int(rpm))
		}
		jobs[i] = fleet.Job[experiments.Run]{Name: name, Run: func(context.Context, int64) (experiments.Run, error) {
			return job(c, name, func(t *tracer) (experiments.Run, error) {
				s, err := hcsdStream(t, spec, cfg)
				if err != nil {
					return experiments.Run{}, err
				}
				return saRun(c, t, s, arms, rpm)
			})
		}}
	}
	return jobs
}

// multiActuator mirrors experiments.MultiActuator.
func multiActuator(c *collector, spec trace.WorkloadSpec, cfg experiments.Config, maxActuators int) (*experiments.MultiActuatorResult, error) {
	ls, err := limitStudy(c, spec, cfg)
	if err != nil {
		return nil, err
	}
	var points [][2]float64
	for n := 1; n <= maxActuators; n++ {
		points = append(points, [2]float64{float64(n), 0})
	}
	runs, err := runJobs(c, saJobs(c, spec, cfg, points), fleetOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &experiments.MultiActuatorResult{Workload: spec.Name, MD: ls.MD, Runs: runs}, nil
}

// reducedRPM mirrors experiments.ReducedRPM.
func reducedRPM(c *collector, spec trace.WorkloadSpec, cfg experiments.Config) (*experiments.ReducedRPMResult, error) {
	ls, err := limitStudy(c, spec, cfg)
	if err != nil {
		return nil, err
	}
	arms, rpms := experiments.ReducedRPMPoints()
	var points [][2]float64
	for _, rpm := range rpms {
		for _, a := range arms {
			points = append(points, [2]float64{float64(a), rpm})
		}
	}
	runs, err := runJobs(c, saJobs(c, spec, cfg, points), fleetOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &experiments.ReducedRPMResult{Workload: spec.Name, MD: ls.MD, HCSD: ls.HCSD, Runs: runs}, nil
}

// whatIf mirrors experiments.RunWhatIf for a query without arm faults.
func whatIf(c *collector, t *tracer, q experiments.WhatIfQuery, seed int64) (*experiments.WhatIfRun, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.ArmFaults) > 0 {
		return nil, fmt.Errorf("idpperf: traced what-if does not model arm faults")
	}
	spec, err := trace.WorkloadByName(q.Workload)
	if err != nil {
		return nil, err
	}
	spec = spec.WithRequests(q.Requests)
	spec.MeanInterArrivalMs /= q.ArrivalScale
	model := disk.BarracudaES()
	if q.RPM != 0 && q.RPM != model.RPM {
		model = model.WithRPM(q.RPM)
	}
	e := newSeqEngine(t)
	rot := &stats.Sample{}
	d, err := core.New(e.sched(kCoreEvent), model, core.Config{
		Actuators: q.Actuators,
		OnService: func(s, r, x float64) { rot.Add(r) },
	})
	if err != nil {
		return nil, err
	}
	offsets, err := experiments.HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	// RunWhatIf's cancellable replay schedules exactly ReplayStream's
	// events on its successful path.
	resp, err := e.replay(c, top(d, t, kCoreSubmit), trace.RemapStream(&streamWrap{inner: g, t: t, k: kGen}, offsets))
	if err != nil {
		return nil, err
	}
	c.noteDevice(d)
	return &experiments.WhatIfRun{
		Run: experiments.Run{
			Label:     q.Label(),
			Resp:      resp,
			RotLat:    rot,
			Power:     d.Power(e.eng.Now()),
			ElapsedMs: e.eng.Now(),
			Completed: uint64(resp.Count()),
		},
		HealthyArms: d.HealthyArms(),
		TotalArms:   q.Actuators,
	}, nil
}

// driveSectors is one BarracudaES drive's capacity, which the RAID
// drivers size their datasets and members by.
func driveSectors() (int64, error) {
	probe, err := disk.New(simkit.New(), disk.BarracudaES(), disk.Options{})
	if err != nil {
		return 0, err
	}
	return probe.Capacity(), nil
}

// raidStudy mirrors experiments.RunRAIDStudy over raidDiskCounts and
// the default families and intensities.
func raidStudy(c *collector, cfg experiments.Config) (*experiments.RAIDStudyResult, error) {
	model := disk.BarracudaES()
	dataset, err := driveSectors()
	if err != nil {
		return nil, err
	}
	out := &experiments.RAIDStudyResult{
		DiskCounts: raidDiskCounts,
		Families:   experiments.DefaultRAIDFamilies(),
	}
	var jobs []fleet.Job[experiments.RAIDPoint]
	for _, in := range workload.Intensities() {
		for _, fam := range out.Families {
			for _, count := range out.DiskCounts {
				in, fam, count := in, fam, count
				name := fmt.Sprintf("raid/%s/SA(%d)x%d", in, fam, count)
				jobs = append(jobs, fleet.Job[experiments.RAIDPoint]{Name: name, Run: func(context.Context, int64) (experiments.RAIDPoint, error) {
					return job(c, name, func(t *tracer) (experiments.RAIDPoint, error) {
						e := newSeqEngine(t)
						members := make([]device.Device, count)
						drives := make([]*core.ParallelDrive, count)
						for i := range members {
							d, err := core.New(e.sched(kCoreEvent), model, core.Config{Actuators: fam})
							if err != nil {
								return experiments.RAIDPoint{}, err
							}
							drives[i] = d
							members[i] = &devWrap{inner: d, t: t, submit: kCoreSubmit, done: kRaidEnd}
						}
						layout, err := raid.NewRAID0(count, dataset, experiments.StripeUnitSectors)
						if err != nil {
							return experiments.RAIDPoint{}, err
						}
						arr, err := raid.NewArray(layout, members)
						if err != nil {
							return experiments.RAIDPoint{}, err
						}
						g, err := workload.NewGenerator(workload.Paper(in, dataset).WithRequests(cfg.Requests), cfg.Seed)
						if err != nil {
							return experiments.RAIDPoint{}, err
						}
						resp, err := e.replay(c, top(arr, t, kRaidSubmit), &streamWrap{inner: g, t: t, k: kWorkload})
						if err != nil {
							return experiments.RAIDPoint{}, err
						}
						for _, d := range drives {
							c.noteDevice(d)
						}
						return experiments.RAIDPoint{
							Intensity: in,
							Actuators: fam,
							Drives:    count,
							P90:       resp.Percentile(90),
							MeanResp:  resp.Mean(),
							Power:     arr.Power(e.eng.Now()),
						}, nil
					})
				}})
			}
		}
	}
	points, err := runJobs(c, jobs, fleetOptions(cfg))
	if err != nil {
		return nil, err
	}
	out.Points = points
	return out, nil
}

// lpraid mirrors experiments.LPRAID on drives members, healthy or
// degraded, with the given worker count. The controller LP shares the
// calling job's tracer; each member LP gets its own, created inside the
// member constructor and read only after the run.
func lpraid(c *collector, t *tracer, cfg experiments.Config, drives, workers int, degraded bool) (*experiments.LPRAIDResult, error) {
	model := disk.BarracudaES()
	memberSectors, err := driveSectors()
	if err != nil {
		return nil, err
	}
	var layout raid.Layout
	if degraded {
		layout, err = raid.NewRAID5(drives, memberSectors, experiments.StripeUnitSectors)
	} else {
		layout, err = raid.NewRAID0(drives, memberSectors, experiments.StripeUnitSectors)
	}
	if err != nil {
		return nil, err
	}
	pe := par.New(drives+1, par.Options{Workers: workers})
	memberTracers := make([]*tracer, drives)
	memberDrives := make([]*core.ParallelDrive, drives)
	arr, err := raid.NewPartitioned(pe, layout, bus.DefaultLink(), int64(model.Geom.SectorBytes),
		func(s simkit.Scheduler, i int) (device.Device, error) {
			mt := newTracer(fmt.Sprintf("%s/m%d", t.name, i), false)
			memberTracers[i] = mt
			d, err := core.New(&schedWrap{inner: s, t: mt, ev: kCoreEvent}, model, core.Config{Actuators: lpraidActuators})
			if err != nil {
				return nil, err
			}
			memberDrives[i] = d
			return &devWrap{inner: d, t: mt, submit: kCoreSubmit, done: kRaidEnd}, nil
		})
	if err != nil {
		return nil, err
	}
	spec := workload.Paper(workload.Light, layout.Capacity()).WithRequests(cfg.Requests)
	spec.MeanInterArrivalMs /= float64(drives)
	g, err := workload.NewGenerator(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if degraded {
		durationMs := spec.MeanInterArrivalMs * float64(cfg.Requests)
		extent := layout.(raid.MemberSizer).MemberExtent()
		chunk := (extent + lpraidRebuildChunks - 1) / lpraidRebuildChunks
		plan, err := fault.Compile(fault.Spec{Death: &fault.Death{
			AtMs:         lpraidDeathFrac * durationMs,
			Member:       drives / 2,
			RebuildAtMs:  lpraidRebuildFrac * durationMs,
			ChunkSectors: chunk,
			Depth:        lpraidRebuildDepth,
		}}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		inj, err = fault.NewInjector(pe.LP(0), plan, fault.Targets{Array: arr}, obs.Options{Name: "lpraid/fault"})
		if err != nil {
			return nil, err
		}
		inj.Schedule()
	}
	run := traceRunner(pe.Runner(0), t, kParRun)
	resp, err := experiments.ReplayStream(run, top(arr, t, kRaidSubmit), &streamWrap{inner: g, t: t, k: kWorkload})
	if err != nil {
		return nil, err
	}
	elapsed := run.Now()
	for _, d := range memberDrives {
		c.noteDevice(d)
	}
	c.addParRun(parRun{workers: workers, wallNs: run.lastNs, ctrl: t, members: memberTracers,
		windows: pe.Windows(), busyLPs: pe.BusyLPs(), fired: pe.Fired(), reqs: uint64(resp.Count())})
	res := &experiments.LPRAIDResult{
		Drives:    drives,
		Actuators: lpraidActuators,
		Intensity: workload.Light,
		Windows:   pe.Windows(),
		BusyLPs:   pe.BusyLPs(),
		Resp:      resp,
		Power:     arr.Power(elapsed),
		ElapsedMs: elapsed,
		Degraded:  degraded,
	}
	if inj != nil {
		res.CopiedSectors = inj.CopiedSectors()
		res.RebuildDoneMs = inj.RebuildDoneMs()
		res.Injected = inj.Injected()
	}
	return res, nil
}

// fleetOptions mirrors the drivers' fan-out options.
func fleetOptions(cfg experiments.Config) fleet.Options {
	return fleet.Options{Parallelism: cfg.Parallelism, BaseSeed: cfg.Seed}
}
