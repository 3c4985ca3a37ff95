// Package experiments implements one driver per table and figure of the
// paper's evaluation. Each driver builds the storage systems under test
// (MD arrays, the HC-SD high-capacity drive, HC-SD-SA(n) intra-disk
// parallel drives, RAID arrays of each), replays the workload, and
// returns the same quantities the paper plots. cmd/idpbench and the
// repository-level benchmarks are thin wrappers around this package.
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
	"repro/internal/simkit/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config scales the experiments. The paper replays 4-6 million requests
// per trace; the default here is large enough to reproduce every trend
// while keeping a full regeneration of all figures in the minutes range.
type Config struct {
	Requests int   // requests per workload replay
	Seed     int64 // RNG seed for workload synthesis

	// Parallelism bounds the worker pool used to fan independent
	// simulations of one experiment out across cores (0 means
	// runtime.GOMAXPROCS(0)). Every simulation owns a private engine
	// and replays the same deterministically generated trace, so
	// results are byte-identical at any parallelism level.
	Parallelism int

	// Observe selects what each run records beyond its samples.
	Observe Observe
}

// Observe selects the observability outputs of an experiment run. Both
// default off, which costs nothing: devices are built with a nil trace
// sink and no snapshot is taken.
type Observe struct {
	// Trace records every request's lifecycle span events into
	// Run.Events. Each simulation traces into a private in-memory sink,
	// and fleet.Run returns results in submission order, so the
	// concatenated trace is byte-identical at any Parallelism.
	Trace bool
	// Metrics captures the system's obs.Snapshot into Run.Snap after
	// the replay finishes.
	Metrics bool
}

// sink returns the per-job trace sink: a fresh in-memory buffer when
// tracing is on, nil (free) otherwise.
func (o Observe) sink() *obs.MemorySink {
	if !o.Trace {
		return nil
	}
	return &obs.MemorySink{}
}

// events extracts the buffered events (nil when tracing is off).
func (o Observe) events(sink *obs.MemorySink) []obs.Event {
	if sink == nil {
		return nil
	}
	return sink.Events()
}

// snap captures dev's snapshot when metrics are on.
func (o Observe) snap(dev device.Instrumented) *obs.Snapshot {
	if !o.Metrics {
		return nil
	}
	s := dev.Snapshot()
	return &s
}

// sinkOptions builds a device's obs hookup from a possibly-nil memory
// sink, keeping the Sink interface value nil (not a typed nil pointer)
// when tracing is off.
func sinkOptions(sink *obs.MemorySink, name string) obs.Options {
	o := obs.Options{Name: name}
	if sink != nil {
		o.Sink = sink
	}
	return o
}

// lpSinkOptions is sinkOptions for a component living on one LP of a
// partitioned engine: the shared memory sink is wrapped in that LP's
// span buffer (see par.LP.WrapSink), so emitters on the LP append to
// LP-private storage and the engine flushes at each window barrier in
// LP order. A genuinely multi-LP run then neither races on the sink nor
// reorders events across worker counts. A nil sink stays nil (tracing
// off).
func lpSinkOptions(lp *par.LP, sink *obs.MemorySink, name string) obs.Options {
	o := obs.Options{Name: name}
	if sink != nil {
		o.Sink = lp.WrapSink(sink)
	}
	return o
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config { return Config{Requests: 150000, Seed: 1} }

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	if c.Requests <= 0 {
		return fmt.Errorf("experiments: Requests must be positive")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: Parallelism must be >= 0")
	}
	return nil
}

// fleetOptions builds the fan-out options every experiment driver uses.
func (c Config) fleetOptions() fleet.Options {
	return fleet.Options{Parallelism: c.Parallelism, BaseSeed: c.Seed}
}

// Run holds everything measured about one system under one workload.
type Run struct {
	Label     string
	Resp      *stats.Sample // per-request response times, ms
	RotLat    *stats.Sample // per-media-access rotational latencies, ms
	Power     power.Breakdown
	ElapsedMs float64
	Completed uint64

	// Events is the run's request-lifecycle span trace, recorded when
	// Config.Observe.Trace is set (nil otherwise). Deterministic: the
	// same config yields the same events at any Parallelism.
	Events []obs.Event
	// Snap is the system's statistics snapshot, captured after the
	// replay when Config.Observe.Metrics is set (nil otherwise).
	Snap *obs.Snapshot
}

// ResponseCDF evaluates the run's response-time CDF over the paper's
// bucket edges.
func (r *Run) ResponseCDF() []float64 { return r.Resp.ResponseCDF() }

// ReplayStream replays a request stream and runs the simulation to
// completion, returning the response-time sample. Arrivals are scheduled one at a
// time — each firing arrival schedules the next — so the engine's event
// queue holds one pending arrival instead of the whole trace. At paper
// scale (4-6M requests per workload) this is what keeps a parallel
// fan-out's memory flat: jobs stream straight from a trace.Generator and
// never materialize multi-million-entry traces or event queues. Each
// request in flight holds a pooled completion record, so the replay
// itself allocates nothing per request.
//
// A stream that terminates with an error (an ingestion parse failure,
// an unroutable remap — see trace.Err) stops chaining arrivals; the
// simulation drains what was already submitted and the error is
// returned alongside the partial sample.
func ReplayStream(eng simkit.Runner, dev device.Device, s trace.Stream) (*stats.Sample, error) {
	// Background never cancels: the batch only spaces no-op polls.
	return replayStreamCtx(context.Background(), eng, dev, s, whatIfCancelBatch)
}

// replayStreamCtx is ReplayStream with a cancellation hook: every
// batch arrivals it polls ctx and, when canceled, stops chaining new
// arrivals so the engine drains only the in-flight tail and returns
// ctx's error with no sample. The successful path schedules exactly
// the events it would without the hook — the check can only abort a
// run, never perturb it.
func replayStreamCtx(ctx context.Context, eng simkit.Runner, dev device.Device, s trace.Stream, batch int) (*stats.Sample, error) {
	rp := &replay{resp: &stats.Sample{}}
	cur, ok := s.Next()
	if !ok {
		eng.Run()
		return rp.resp, trace.Err(s)
	}
	scheduled := 0
	var cancelErr error
	var fire simkit.Event
	fire = func() {
		r := cur
		scheduled++
		if scheduled%batch == 0 {
			if err := ctx.Err(); err != nil {
				cancelErr = err
				return // stop chaining; the queued tail drains and Run returns
			}
		}
		// Chain the next arrival before submitting, so same-instant
		// arrivals keep their generation order ahead of service events.
		if nxt, more := s.Next(); more {
			cur = nxt
			eng.At(nxt.ArrivalMs, fire)
		}
		c := rp.record()
		c.arrivalMs = r.ArrivalMs
		dev.Submit(r, c.complete)
	}
	eng.At(cur.ArrivalMs, fire)
	eng.Run()
	if cancelErr != nil {
		return nil, cancelErr
	}
	return rp.resp, trace.Err(s)
}

// replay is one replay's response sample and its free list of
// completion records, so requests in flight cost no allocation each.
type replay struct {
	resp *stats.Sample
	free []*completion
}

// completion is one request in flight: its arrival time and the done
// callback handed to the device, bound once when the record is built.
type completion struct {
	rp        *replay
	arrivalMs float64
	complete  device.Done // c.finish, bound once
}

// record takes a completion record off the free list, or builds one.
func (rp *replay) record() *completion {
	if n := len(rp.free); n > 0 {
		c := rp.free[n-1]
		rp.free = rp.free[:n-1]
		return c
	}
	c := &completion{rp: rp}
	c.complete = c.finish
	return c
}

// finish records the response time and returns c to the free list.
func (c *completion) finish(at float64) {
	c.rp.resp.Add(at - c.arrivalMs)
	c.rp.free = append(c.rp.free, c)
}

// MDDriveModel returns the member-drive model of a workload's original
// array (Table 2): the Financial and Websearch arrays used 19 GB 10K
// drives, TPC-C 37 GB 10K drives, and TPC-H 36 GB 7200 RPM drives.
func MDDriveModel(spec trace.WorkloadSpec) (disk.Model, error) {
	switch spec.Name {
	case "Financial", "Websearch":
		return disk.Drive10K18GB(), nil
	case "TPC-C":
		return disk.Drive10K37GB(), nil
	case "TPC-H":
		return disk.Drive7200x36GB(), nil
	}
	return disk.Model{}, fmt.Errorf("experiments: no MD drive model for workload %q", spec.Name)
}

// MDSystem is the paper's MD configuration: the original multi-disk
// array, with each traced request routed to the disk it was traced
// against.
type MDSystem struct {
	Router *raid.RouteByDisk
	Drives []*disk.Drive
}

// NewMDSystem builds the MD array for a workload on the engine. The obs
// hookup is shared by every member: each drive traces into ob.Sink
// labeled "md0", "md1", ... (a nil sink costs nothing).
func NewMDSystem(eng simkit.Scheduler, spec trace.WorkloadSpec, ob obs.Options) (*MDSystem, error) {
	model, err := MDDriveModel(spec)
	if err != nil {
		return nil, err
	}
	drives := make([]*disk.Drive, spec.Disks)
	members := make([]device.Device, spec.Disks)
	for i := range drives {
		d, err := disk.New(eng, model, disk.Options{
			Obs: obs.Options{Sink: ob.Sink, Name: fmt.Sprintf("md%d", i)},
		})
		if err != nil {
			return nil, err
		}
		drives[i] = d
		members[i] = d
	}
	router, err := raid.NewRouteByDisk(members)
	if err != nil {
		return nil, err
	}
	return &MDSystem{Router: router, Drives: drives}, nil
}

// Offsets reports each member's starting address in the HC-SD layout:
// the paper's migration sequentially populates the high-capacity drive
// with each MD disk's data in disk order.
func (m *MDSystem) Offsets() []int64 {
	offsets := make([]int64, len(m.Drives))
	var cum int64
	for i, d := range m.Drives {
		offsets[i] = cum
		cum += d.Capacity()
	}
	return offsets
}

// HCSDOffsets computes each MD member's starting address in the HC-SD
// layout: the paper's migration sequentially populates the
// high-capacity drive with each MD disk's data in disk order.
func HCSDOffsets(spec trace.WorkloadSpec) ([]int64, error) {
	model, err := MDDriveModel(spec)
	if err != nil {
		return nil, err
	}
	capacity, err := model.Sectors()
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, spec.Disks)
	var cum int64
	for i := range offsets {
		offsets[i] = cum
		cum += capacity
	}
	return offsets, nil
}

// hcsdStream builds a per-job streaming synthesis of the workload
// remapped onto the HC-SD, without ever materializing the trace. Each
// parallel job calls this to own a private stream.
func hcsdStream(spec trace.WorkloadSpec, cfg Config) (trace.Stream, error) {
	offsets, err := HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec.WithRequests(cfg.Requests), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return trace.RemapStream(g, offsets), nil
}

// LimitStudyResult is one workload's Figure 2 + Figure 3 measurement.
type LimitStudyResult struct {
	Workload string
	MD       Run
	HCSD     Run
}

// validateStudy reports the first problem with a single-workload
// study's config or its workload at the config's scale.
func validateStudy(spec trace.WorkloadSpec, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return spec.WithRequests(cfg.Requests).Validate()
}

// mdJob is the fleet job replaying the workload on its tuned MD array.
func mdJob(spec trace.WorkloadSpec, cfg Config) fleet.Job[Run] {
	return fleet.Job[Run]{Name: spec.Name + "/MD", Run: func(context.Context, int64) (Run, error) {
		eng := simkit.New()
		sink := cfg.Observe.sink()
		md, err := NewMDSystem(eng, spec, sinkOptions(sink, ""))
		if err != nil {
			return Run{}, err
		}
		g, err := trace.NewGenerator(spec.WithRequests(cfg.Requests), cfg.Seed)
		if err != nil {
			return Run{}, err
		}
		resp, err := ReplayStream(eng, md.Router, g)
		if err != nil {
			return Run{}, err
		}
		return Run{
			Label:     "MD",
			Resp:      resp,
			RotLat:    &stats.Sample{},
			Power:     md.Router.Power(eng.Now()),
			ElapsedMs: eng.Now(),
			Completed: uint64(resp.Count()),
			Events:    cfg.Observe.events(sink),
			Snap:      cfg.Observe.snap(md.Router),
		}, nil
	}}
}

// hcsdBaseJob is the fleet job replaying the workload on the stock
// HC-SD drive.
func hcsdBaseJob(spec trace.WorkloadSpec, cfg Config) fleet.Job[Run] {
	return hcsdJob(spec.Name+"/HC-SD", spec, cfg, disk.BarracudaES(),
		disk.Options{Obs: obs.Options{Name: "hcsd"}}, "HC-SD")
}

// LimitStudy runs the paper's §7.1 migration study for one workload:
// the tuned MD array versus the single high-capacity drive. The two
// systems replay the same deterministic request stream on independent
// engines and fan out through the fleet; each job synthesizes its
// private stream on the fly, so no job ever holds a full trace.
func LimitStudy(spec trace.WorkloadSpec, cfg Config) (*LimitStudyResult, error) {
	if err := validateStudy(spec, cfg); err != nil {
		return nil, err
	}
	runs, err := fleet.Run([]fleet.Job[Run]{mdJob(spec, cfg), hcsdBaseJob(spec, cfg)}, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &LimitStudyResult{Workload: spec.Name, MD: runs[0], HCSD: runs[1]}, nil
}

// ScaleCase is one curve of the paper's Figure 4 bottleneck analysis.
type ScaleCase struct {
	Label     string
	SeekScale float64 // disk.Options semantics (0 → 1.0, ZeroedScale → 0)
	RotScale  float64
}

// Figure4Cases returns the paper's six scaled cases: seek time at 1/2,
// 1/4 and 0, then rotational latency at 1/2, 1/4 and 0.
func Figure4Cases() []ScaleCase {
	return []ScaleCase{
		{Label: "(1/2)S", SeekScale: 0.5},
		{Label: "(1/4)S", SeekScale: 0.25},
		{Label: "S=0", SeekScale: disk.ZeroedScale},
		{Label: "(1/2)R", RotScale: 0.5},
		{Label: "(1/4)R", RotScale: 0.25},
		{Label: "R=0", RotScale: disk.ZeroedScale},
	}
}

// BottleneckResult is one workload's Figure 4 measurement.
type BottleneckResult struct {
	Workload string
	Cases    []Run // in Figure4Cases order
}

// Bottleneck runs the §7.1 bottleneck isolation on the HC-SD drive:
// artificially scaled seek times and rotational latencies.
func Bottleneck(spec trace.WorkloadSpec, cfg Config) (*BottleneckResult, error) {
	if err := validateStudy(spec, cfg); err != nil {
		return nil, err
	}
	cases := Figure4Cases()
	jobs := make([]fleet.Job[Run], len(cases))
	for i, sc := range cases {
		jobs[i] = hcsdJob(spec.Name+"/"+sc.Label, spec, cfg, disk.BarracudaES(), disk.Options{
			SeekScale: sc.SeekScale,
			RotScale:  sc.RotScale,
			Obs:       obs.Options{Name: "hcsd/" + sc.Label},
		}, sc.Label)
	}
	runs, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &BottleneckResult{Workload: spec.Name, Cases: runs}, nil
}

// runDrive is the one single-drive run every design point goes
// through: it builds a drive from model and opts on a fresh engine — an
// SA(n) parallel drive (core.New) when opts.Actuators > 0, a
// conventional drive (disk.New) otherwise — replays s on it, and
// measures the run under label. ob decides whether the drive traces
// (into a sink named opts.Obs.Name) and whether its snapshot is taken.
// Rotational latency is recorded on SA(n) drives only: no table reads
// it for any other run. attach, when non-nil, runs between the build
// and the replay (RunWhatIf arms its fault injector there); ctx only
// aborts the replay (see replayStreamCtx).
func runDrive(ctx context.Context, model disk.Model, opts disk.Options, label string, s trace.Stream, ob Observe,
	attach func(eng simkit.Scheduler, d *disk.Drive, sink *obs.MemorySink) error) (*Run, error) {
	eng := simkit.New()
	sink := ob.sink()
	if sink != nil {
		opts.Obs.Sink = sink
	}
	rot := &stats.Sample{}
	var d *disk.Drive
	var dev device.Instrumented // the SA(n) snapshot carries the parallel-drive labels
	if opts.Actuators > 0 {
		opts.OnService = func(_, r, _ float64) { rot.Add(r) }
		pd, err := core.New(eng, model, opts)
		if err != nil {
			return nil, err
		}
		d, dev = pd.Drive, pd
	} else {
		var err error
		if d, err = disk.New(eng, model, opts); err != nil {
			return nil, err
		}
		dev = d
	}
	if attach != nil {
		if err := attach(eng, d, sink); err != nil {
			return nil, err
		}
	}
	resp, err := replayStreamCtx(ctx, eng, d, s, whatIfCancelBatch)
	if err != nil {
		return nil, err
	}
	return &Run{
		Label:     label,
		Resp:      resp,
		RotLat:    rot,
		Power:     d.Power(eng.Now()),
		ElapsedMs: eng.Now(),
		Completed: uint64(resp.Count()),
		Events:    ob.events(sink),
		Snap:      ob.snap(dev),
	}, nil
}

// hcsdRun runs one drive (see runDrive) on the workload's HC-SD
// request stream, synthesized privately for the run.
func hcsdRun(spec trace.WorkloadSpec, cfg Config, model disk.Model, opts disk.Options, label string) (Run, error) {
	s, err := hcsdStream(spec, cfg)
	if err != nil {
		return Run{}, err
	}
	r, err := runDrive(context.Background(), model, opts, label, s, cfg.Observe, nil)
	if err != nil {
		return Run{}, err
	}
	return *r, nil
}

// hcsdJob is hcsdRun as a fleet job.
func hcsdJob(name string, spec trace.WorkloadSpec, cfg Config, model disk.Model, opts disk.Options, label string) fleet.Job[Run] {
	return fleet.Job[Run]{Name: name, Run: func(context.Context, int64) (Run, error) {
		return hcsdRun(spec, cfg, model, opts, label)
	}}
}

// saModel is the HC-SD's drive model at the given spindle speed (0
// keeps the stock 7200 RPM).
func saModel(rpm float64) disk.Model {
	model := disk.BarracudaES()
	if rpm != 0 && rpm != model.RPM {
		model = model.WithRPM(rpm)
	}
	return model
}

// saJob is the fleet job of one HC-SD-SA(n) design point at the given
// spindle speed, labeled HC-SD-SA(n) at the stock speed and SA(n)/rpm
// below it.
func saJob(spec trace.WorkloadSpec, cfg Config, actuators int, rpm float64) fleet.Job[Run] {
	label := fmt.Sprintf("HC-SD-SA(%d)", actuators)
	name := fmt.Sprintf("%s/SA(%d)", spec.Name, actuators)
	if rpm != 0 {
		name += fmt.Sprintf("/%d", int(rpm))
		if rpm != disk.BarracudaES().RPM {
			label = fmt.Sprintf("SA(%d)/%d", actuators, int(rpm))
		}
	}
	return hcsdJob(name, spec, cfg, saModel(rpm),
		disk.Options{Actuators: actuators, Obs: obs.Options{Name: label}}, label)
}

// MultiActuatorResult is one workload's Figure 5 measurement: response
// CDFs and rotational-latency PDFs for SA(1)..SA(n).
type MultiActuatorResult struct {
	Workload string
	MD       Run
	Runs     []Run // SA(1), SA(2), ... in order
}

// MultiActuator runs the §7.2 evaluation for one workload: the MD
// baseline and SA(1)..SA(maxActuators) in one fan-out.
func MultiActuator(spec trace.WorkloadSpec, cfg Config, maxActuators int) (*MultiActuatorResult, error) {
	if maxActuators < 1 {
		return nil, fmt.Errorf("experiments: maxActuators %d", maxActuators)
	}
	if err := validateStudy(spec, cfg); err != nil {
		return nil, err
	}
	jobs := []fleet.Job[Run]{mdJob(spec, cfg)}
	for n := 1; n <= maxActuators; n++ {
		jobs = append(jobs, saJob(spec, cfg, n, 0))
	}
	runs, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &MultiActuatorResult{Workload: spec.Name, MD: runs[0], Runs: runs[1:]}, nil
}

// ReducedRPMResult is one workload's Figure 6/7 measurement: SA(n)
// designs across spindle speeds.
type ReducedRPMResult struct {
	Workload string
	MD       Run
	HCSD     Run
	Runs     []Run // SA(a)/rpm for each (actuators, rpm) pair requested
}

// ReducedRPMPoints returns the paper's Figure 6 grid: 2- and 4-actuator
// designs at 7200, 6200, 5200 and 4200 RPM.
func ReducedRPMPoints() (actuators []int, rpms []float64) {
	return []int{2, 4}, []float64{7200, 6200, 5200, 4200}
}

// ReducedRPM runs the §7.2 reduced-RPM power/performance study: the MD
// and HC-SD baselines and every ReducedRPMPoints design in one fan-out.
func ReducedRPM(spec trace.WorkloadSpec, cfg Config) (*ReducedRPMResult, error) {
	if err := validateStudy(spec, cfg); err != nil {
		return nil, err
	}
	jobs := []fleet.Job[Run]{mdJob(spec, cfg), hcsdBaseJob(spec, cfg)}
	arms, rpms := ReducedRPMPoints()
	for _, rpm := range rpms {
		for _, a := range arms {
			jobs = append(jobs, saJob(spec, cfg, a, rpm))
		}
	}
	runs, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &ReducedRPMResult{Workload: spec.Name, MD: runs[0], HCSD: runs[1], Runs: runs[2:]}, nil
}

// SAPowerModel builds the power model of an HC-SD-SA(n) design point at
// the given spindle speed (0 = the base model's RPM) — used by design
// sweeps that need peak power and thermal figures without a simulation.
func SAPowerModel(actuators int, rpm float64) (*power.Model, error) {
	model := saModel(rpm)
	return power.NewModel(model.PowerCoeff, model.PowerSpec(actuators))
}
