package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// Config describes an intra-disk parallel drive: a base drive model
// extended with extra arm assemblies and, optionally, the relaxed
// parallelism variants from the paper's technical report.
type Config struct {
	// Actuators is the number of independent arm assemblies (n in
	// HC-SD-SA(n)). 1 yields a conventional drive.
	Actuators int
	// Sched overrides the dispatch queue configuration (default: the
	// paper's SPTF, via disk.DefaultSchedConfig).
	Sched *sched.Config
	// SeekScale and RotScale follow disk.Options semantics (Figure 4
	// limit-study knobs). Zero means 1.0; disk.ZeroedScale means 0.
	SeekScale, RotScale float64
	// OnService observes the mechanical components of each media access.
	OnService func(seekMs, rotMs, xferMs float64)

	// MultiArmMotion relaxes the single-arm-in-motion constraint: while
	// the channel is busy, idle arms pre-seek toward queued requests
	// (first relaxed design of the paper's §7.2; the paper found little
	// benefit). Power for overlapped motion is charged as VCM increments.
	MultiArmMotion bool
	// Channels relaxes the single-transfer-path constraint: up to this
	// many requests may be in service concurrently, each on its own arm
	// (second relaxed design). Zero means 1.
	Channels int

	// HeadsPerArm puts h heads on each arm, mounted equidistant from
	// the actuation axis at spread angular positions (the paper's
	// Figure 1(b), the H dimension of the taxonomy). All heads ride the
	// same arm, so seeks are shared; the rotational latency of an access
	// is the wait until the sector reaches the *nearest* head. Zero
	// means 1.
	HeadsPerArm int

	// IdleReturn lets an idle arm reposition toward the most recently
	// serviced cylinder once it has drifted far from the action (an
	// extension: real multi-actuator firmware parks idle heads near the
	// active band). Repositioning motion overlaps other activity, so it
	// slightly relaxes the single-arm-in-motion constraint; its energy
	// is charged as a VCM increment.
	IdleReturn bool

	// InitialCyls optionally places each arm at a starting cylinder.
	// By default every arm starts at cylinder 0 and spreads through use:
	// dispatch parks each arm where it last serviced, which keeps all
	// arms inside the workload's active region. (Spreading arms evenly
	// across the stroke strands the far arms when the footprint is
	// concentrated: a long seek always loses the dispatch cost race to
	// simply waiting out the rotation on a nearer arm.)
	InitialCyls []int

	// AngularOffsets optionally sets each arm assembly's angular
	// mounting position around the platter stack, as a fraction of a
	// revolution in [0,1). The paper's Figure 1 mounts assemblies
	// diagonally from each other; this placement is what shortens
	// rotational latency — a sector reaches the nearest arm in a
	// fraction of a revolution. The default spreads arms evenly
	// (arm i at i/n of a revolution).
	AngularOffsets []float64

	// Obs is the observability hookup: when Obs.Sink is non-nil every
	// request emits lifecycle span events (with the servicing actuator
	// id) to it, labeled Obs.Name (default: the model name). A nil
	// sink costs nothing.
	Obs obs.Options
}

func (c Config) channels() int {
	if c.Channels <= 0 {
		return 1
	}
	return c.Channels
}

func (c Config) headsPerArm() int {
	if c.HeadsPerArm <= 0 {
		return 1
	}
	return c.HeadsPerArm
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.Actuators <= 0:
		return fmt.Errorf("core: Actuators %d must be positive", c.Actuators)
	case c.Channels < 0:
		return fmt.Errorf("core: Channels %d must be nonnegative", c.Channels)
	case c.HeadsPerArm < 0:
		return fmt.Errorf("core: HeadsPerArm %d must be nonnegative", c.HeadsPerArm)
	case c.channels() > c.Actuators:
		return fmt.Errorf("core: %d channels exceed %d actuators", c.channels(), c.Actuators)
	case c.InitialCyls != nil && len(c.InitialCyls) != c.Actuators:
		return fmt.Errorf("core: %d initial cylinders for %d actuators",
			len(c.InitialCyls), c.Actuators)
	case c.AngularOffsets != nil && len(c.AngularOffsets) != c.Actuators:
		return fmt.Errorf("core: %d angular offsets for %d actuators",
			len(c.AngularOffsets), c.Actuators)
	}
	for _, a := range c.AngularOffsets {
		if a < 0 || a >= 1 {
			return fmt.Errorf("core: angular offset %v outside [0,1)", a)
		}
	}
	if err := device.ValidateScale("SeekScale", c.SeekScale); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := device.ValidateScale("RotScale", c.RotScale); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

type pending struct {
	req        trace.Request
	done       device.Done
	loc        geom.Loc // physical location of the first block, cached at submit
	background bool     // background-class request (SubmitBackground)

	obsReq   uint64  // span-trace request id (0 when tracing is off)
	submitMs float64 // queue-entry time, for queue-wait spans
}

type arm struct {
	cyl    int
	alpha  float64 // angular mounting position, fraction of a revolution
	failed bool
	busy   bool // servicing a request (holds a channel)

	// Pre-seek assignment state (MultiArmMotion only).
	assigned   *pending
	seekDoneAt float64

	// The request this arm is servicing (valid while busy; an arm holds
	// at most one service), and the completion event that retires it,
	// built once in New so a service schedules no per-request closure.
	inService pending
	complete  simkit.Event

	serviced uint64
}

// ParallelDrive is an intra-disk parallel drive: a single spindle and
// platter stack accessed by several independently positioned arm
// assemblies. In the paper's base HC-SD-SA(n) design only one arm may be
// in motion and only one head may transfer at a time, so service remains
// serialized; the benefit is that the SPTF scheduler dispatches whichever
// idle arm minimizes the positioning time of the chosen request.
type ParallelDrive struct {
	model disk.Model
	cfg   Config
	eng   simkit.Scheduler
	geo   *geom.Geometry
	curve *mech.SeekCurve
	rot   *mech.Rotation
	buf   *cache.Cache
	queue *sched.Queue[pending]
	acct  *power.Accountant
	pm    *power.Model

	arms           []arm
	activeChannels int
	channels       int // cfg.Channels, normalized once in New
	heads          int // cfg.HeadsPerArm, normalized once in New

	// Dispatch cost functions, built once at construction so the hot
	// loop never allocates a closure. Both follow the sched.Cost bound
	// contract and read costStart (and armCost additionally costArm),
	// which dispatchOne / preSeekAssign refresh before each queue scan.
	queueCost sched.Cost[pending] // best idle arm's positioning cost
	armCost   sched.Cost[pending] // positioning cost for arm costArm
	costStart float64             // now + ControllerOverheadMs: when a dispatched seek starts
	costArm   int

	// plan is the best idle arm for the entry of the last queueCost call
	// that returned below its bound — after a queue Pick, the picked
	// entry's — with that arm's seek and rotational latency, so the
	// dispatch starts service without re-costing its winner.
	plan struct {
		arm           int
		seekMs, rotMs float64
	}

	// bgQueue holds background-class requests (SubmitBackground): work
	// that is only dispatched when no foreground request is waiting.
	bgQueue *sched.Queue[pending]

	submitted   uint64
	completed   uint64
	bgCompleted uint64
	cacheHits   uint64
	seekScale   float64
	rotScale    float64

	// Observability: the emitter (nil when tracing is off), the metrics
	// registry, and hot-path handles into it. qDepth tracks the
	// foreground dispatch queue per the obs.QueueStats contract;
	// background-class work is tracked separately in gBgDepth.
	name     string
	em       *obs.Emitter
	reg      *obs.Registry
	qDepth   obs.Gauge
	gBgDepth *obs.Gauge
	hSeek    *obs.Histogram
	hRot     *obs.Histogram
	hXfer    *obs.Histogram
}

var _ device.Device = (*ParallelDrive)(nil)

// New attaches a parallel drive built from the base model to the
// scheduler — the sequential engine or one logical process of the
// partitioned engine.
func New(eng simkit.Scheduler, model disk.Model, cfg Config) (*ParallelDrive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	geo, err := geom.New(model.Geom)
	if err != nil {
		return nil, err
	}
	curve, err := mech.NewSeekCurve(mech.SeekSpec{
		SingleCylMs:  model.SingleCylMs,
		AvgMs:        model.AvgSeekMs,
		FullStrokeMs: model.FullStrokeMs,
		MaxCyl:       model.Geom.Cylinders - 1,
	})
	if err != nil {
		return nil, err
	}
	rot, err := mech.NewRotation(model.RPM)
	if err != nil {
		return nil, err
	}
	buf, err := cache.New(cache.Config{
		SizeBytes:        model.CacheBytes,
		SectorBytes:      model.Geom.SectorBytes,
		Segments:         model.CacheSegments,
		ReadAheadSectors: model.ReadAheadSectors,
	})
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(cfg.Actuators))
	if err != nil {
		return nil, err
	}
	scfg := disk.DefaultSchedConfig()
	if cfg.Sched != nil {
		scfg = *cfg.Sched
	}
	name := cfg.Obs.Label(model.Name)
	reg := obs.NewRegistry()
	d := &ParallelDrive{
		model:     model,
		cfg:       cfg,
		eng:       eng,
		geo:       geo,
		curve:     curve,
		rot:       rot,
		buf:       buf,
		queue:     sched.NewQueueSized[pending](scfg, 256),
		bgQueue:   sched.NewQueue[pending](scfg),
		acct:      power.NewAccountant(pm),
		pm:        pm,
		arms:      make([]arm, cfg.Actuators),
		channels:  cfg.channels(),
		heads:     cfg.headsPerArm(),
		seekScale: device.NormalizeScale(cfg.SeekScale),
		rotScale:  device.NormalizeScale(cfg.RotScale),

		name:     name,
		em:       simkit.Emitter(eng, cfg.Obs.Sink, name),
		reg:      reg,
		gBgDepth: reg.Gauge("bg_queue_len"),
		hSeek:    reg.Histogram("seek_ms", obs.PhaseEdgesMs),
		hRot:     reg.Histogram("rot_ms", obs.PhaseEdgesMs),
		hXfer:    reg.Histogram("xfer_ms", obs.PhaseEdgesMs),
	}
	for i := range d.arms {
		if cfg.InitialCyls != nil {
			c := cfg.InitialCyls[i]
			if c < 0 || c >= model.Geom.Cylinders {
				return nil, fmt.Errorf("core: initial cylinder %d out of range", c)
			}
			d.arms[i].cyl = c
		}
		if cfg.AngularOffsets != nil {
			d.arms[i].alpha = cfg.AngularOffsets[i]
		} else {
			d.arms[i].alpha = float64(i) / float64(cfg.Actuators)
		}
		d.arms[i].complete = func() { d.finishService(i) }
	}
	d.queueCost = func(p *pending, bound float64) float64 {
		return d.planArm(&p.loc, bound)
	}
	d.armCost = func(p *pending, bound float64) float64 {
		seekMs := d.seekTime(d.costArm, &p.loc)
		if seekMs >= bound {
			return seekMs // its rotation cannot bring it below bound
		}
		return seekMs + d.rotLatency(d.costArm, &p.loc, d.costStart+seekMs)
	}
	return d, nil
}

// NewSA builds the paper's HC-SD-SA(n) design point on the given base
// model: n actuators, single arm in motion, single channel, SPTF.
func NewSA(eng simkit.Scheduler, model disk.Model, n int) (*ParallelDrive, error) {
	return New(eng, model, Config{Actuators: n})
}

// Taxonomy reports the drive's DASH taxonomy point.
func (d *ParallelDrive) Taxonomy() DASH {
	t := SA(d.cfg.Actuators)
	t.H = d.heads
	return t
}

// Model returns the base drive model.
func (d *ParallelDrive) Model() disk.Model { return d.model }

// Capacity reports the drive's size in sectors.
func (d *ParallelDrive) Capacity() int64 { return d.geo.TotalSectors() }

// Actuators reports the configured arm-assembly count.
func (d *ParallelDrive) Actuators() int { return d.cfg.Actuators }

// HealthyArms reports how many arm assemblies remain in service.
func (d *ParallelDrive) HealthyArms() int {
	n := 0
	for i := range d.arms {
		if !d.arms[i].failed {
			n++
		}
	}
	return n
}

// ServicedByArm reports per-arm service counts (index = arm number).
func (d *ParallelDrive) ServicedByArm() []uint64 {
	out := make([]uint64, len(d.arms))
	for i := range d.arms {
		out[i] = d.arms[i].serviced
	}
	return out
}

// Power reports the drive's average-power breakdown over elapsed ms.
func (d *ParallelDrive) Power(elapsedMs float64) power.Breakdown {
	return d.acct.Breakdown(elapsedMs)
}

// PowerModel exposes the drive's power model.
func (d *ParallelDrive) PowerModel() *power.Model { return d.pm }

// FailArm deconfigures one arm assembly at runtime — the §8 graceful
// degradation path (a SMART-style predicted failure takes the actuator
// out of service while the drive keeps running on the remaining arms).
// An in-flight service on the arm completes; the arm just takes no
// further work. Failing the last healthy arm is refused.
func (d *ParallelDrive) FailArm(i int) error {
	if i < 0 || i >= len(d.arms) {
		return fmt.Errorf("core: arm %d out of range [0,%d)", i, len(d.arms))
	}
	if d.arms[i].failed {
		return fmt.Errorf("core: arm %d already deconfigured", i)
	}
	if d.HealthyArms() == 1 {
		return fmt.Errorf("core: refusing to deconfigure the last healthy arm")
	}
	a := &d.arms[i]
	a.failed = true
	// A pre-seek assignment is abandoned; the request goes back to the
	// queue so another arm picks it up.
	if a.assigned != nil {
		p := *a.assigned
		a.assigned = nil
		d.queue.Push(p, d.eng.Now())
		d.qDepth.Set(float64(d.queue.Len()))
	}
	return nil
}

// RepairArm returns a deconfigured arm to service.
func (d *ParallelDrive) RepairArm(i int) error {
	if i < 0 || i >= len(d.arms) {
		return fmt.Errorf("core: arm %d out of range [0,%d)", i, len(d.arms))
	}
	if !d.arms[i].failed {
		return fmt.Errorf("core: arm %d is not deconfigured", i)
	}
	d.arms[i].failed = false
	d.trySchedule()
	return nil
}

// SubmitBackground presents a background-class request: it is serviced
// only when no foreground request is pending, using whatever actuator is
// free. This provides the functionality of freeblock scheduling (§5 of
// the paper) with dedicated hardware instead of rotational-gap stealing:
// background work never delays a queued foreground request, and unlike
// freeblock scheduling it is not constrained to finish within a
// foreground request's rotational latency window.
func (d *ParallelDrive) SubmitBackground(r trace.Request, done device.Done) {
	if r.End() > d.Capacity() {
		panic(fmt.Sprintf("core: %s: background request [%d,%d) beyond capacity %d",
			d.model.Name, r.LBA, r.End(), d.Capacity()))
	}
	now := d.eng.Now()
	d.submitted++
	req := d.em.NextReq()
	d.em.Submit(req, r.LBA, r.Sectors, r.Read)
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.eng.After(d.model.CacheHitMs, func() {
			d.bgCompleted++
			d.em.CacheHit(req, d.model.CacheHitMs)
			d.em.Complete(req, -1, now)
			if done != nil {
				done(d.eng.Now())
			}
		})
		return
	}
	d.bgQueue.Push(pending{req: r, done: done, loc: d.geo.Locate(r.LBA), background: true,
		obsReq: req, submitMs: now}, now)
	d.gBgDepth.Set(float64(d.bgQueue.Len()))
	d.trySchedule()
}

// BackgroundCompleted reports how many background requests finished.
func (d *ParallelDrive) BackgroundCompleted() uint64 { return d.bgCompleted }

// BackgroundPending reports the background queue length.
func (d *ParallelDrive) BackgroundPending() int { return d.bgQueue.Len() }

// Submit presents a request at the current simulated time. Requests
// beyond the drive's capacity panic (see disk.Drive.Submit).
func (d *ParallelDrive) Submit(r trace.Request, done device.Done) {
	if r.End() > d.Capacity() {
		panic(fmt.Sprintf("core: %s: request [%d,%d) beyond capacity %d",
			d.model.Name, r.LBA, r.End(), d.Capacity()))
	}
	now := d.eng.Now()
	d.submitted++
	req := d.em.NextReq()
	d.em.Submit(req, r.LBA, r.Sectors, r.Read)
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.eng.After(d.model.CacheHitMs, func() {
			d.completed++
			d.em.CacheHit(req, d.model.CacheHitMs)
			d.em.Complete(req, -1, now)
			if done != nil {
				done(d.eng.Now())
			}
		})
		return
	}
	d.queue.Push(pending{req: r, done: done, loc: d.geo.Locate(r.LBA),
		obsReq: req, submitMs: now}, now)
	d.qDepth.Set(float64(d.queue.Len()))
	d.trySchedule()
}

// armTarget is the platter rotation angle at which loc's sector sits
// under head `head` of the given arm: the sector angle shifted by the
// arm's angular mounting position plus the head's offset along the arm's
// head circle.
func (d *ParallelDrive) armTarget(armIdx, head int, loc *geom.Loc) float64 {
	h := float64(head) / float64(d.heads)
	t := loc.Angle - d.arms[armIdx].alpha - h
	for t < 0 {
		t += 1
	}
	return t
}

// seekTime is the scaled seek time for the given arm to reach loc's
// cylinder.
func (d *ParallelDrive) seekTime(armIdx int, loc *geom.Loc) float64 {
	return d.curve.Time(d.arms[armIdx].cyl-loc.Cyl) * d.seekScale
}

// rotLatency is the scaled rotational latency for the given arm, on
// track at time atTrack, to begin service at loc. With multiple heads
// per arm, the wait ends when the sector reaches the nearest head.
func (d *ParallelDrive) rotLatency(armIdx int, loc *geom.Loc, atTrack float64) float64 {
	rotMs := d.rot.LatencyTo(d.armTarget(armIdx, 0, loc), atTrack)
	for h := 1; h < d.heads; h++ {
		if r := d.rot.LatencyTo(d.armTarget(armIdx, h, loc), atTrack); r < rotMs {
			rotMs = r
		}
	}
	return rotMs * d.rotScale
}

// planArm is the SPTF cost of dispatching loc at costStart: the lowest
// positioning time (seek + rotational latency) over the idle arms, ties
// going to the lowest arm. It is branch-and-bound under the sched.Cost
// contract: an arm whose scaled seek alone already reaches bound, or the
// best arm so far, is skipped without computing its rotation, since a
// non-negative rotation cannot bring it back below. A result below bound
// is exact and makes loc the scan's new best, so planArm records its
// arm, seek and rotation in d.plan; otherwise it returns bound and
// leaves d.plan alone. With bound +Inf it is the exhaustive choice.
func (d *ParallelDrive) planArm(loc *geom.Loc, bound float64) float64 {
	best := -1
	var bestSeek, bestRot float64
	for i := range d.arms {
		a := &d.arms[i]
		if a.failed || a.busy || a.assigned != nil {
			continue
		}
		seekMs := d.seekTime(i, loc)
		if seekMs >= bound {
			continue
		}
		rotMs := d.rotLatency(i, loc, d.costStart+seekMs)
		if c := seekMs + rotMs; c < bound {
			best, bestSeek, bestRot, bound = i, seekMs, rotMs, c
		}
	}
	if best >= 0 {
		d.plan.arm, d.plan.seekMs, d.plan.rotMs = best, bestSeek, bestRot
	}
	return bound
}

// trySchedule starts as many services as free channels allow, then (in
// the multi-arm-motion variant) assigns idle arms to pre-seek.
func (d *ParallelDrive) trySchedule() {
	for d.activeChannels < d.channels {
		if !d.dispatchOne() {
			break
		}
	}
	if d.cfg.MultiArmMotion {
		d.preSeekAssign()
	}
}

// dispatchOne starts one service if work and an arm are available.
func (d *ParallelDrive) dispatchOne() bool {
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs

	// Candidate 1: a pre-positioned arm holding an assignment.
	bestAssigned := -1
	var bestAssignedCost, bestAssignedSeek, bestAssignedRot float64
	for i := range d.arms {
		a := &d.arms[i]
		if a.assigned == nil || a.busy || a.failed {
			continue
		}
		rem := a.seekDoneAt - now
		if rem < 0 {
			rem = 0
		}
		rot := d.rotLatency(i, &a.assigned.loc, now+rem)
		if c := rem + rot; bestAssigned == -1 || c < bestAssignedCost {
			bestAssigned, bestAssignedCost = i, c
			bestAssignedSeek, bestAssignedRot = rem, rot
		}
	}

	// Candidate 2: the best (request, idle arm) pair from the queue.
	haveIdleArm := false
	for i := range d.arms {
		if !d.arms[i].failed && !d.arms[i].busy && d.arms[i].assigned == nil {
			haveIdleArm = true
			break
		}
	}

	// One cost scan serves both the comparison against the pre-seeked
	// candidate and the dispatch itself: Take removes what Pick chose,
	// and d.plan holds the arm, seek and rotation the scan found for it.
	var fromQueue sched.Pick[pending]
	queued := false
	if haveIdleArm && d.queue.Len() > 0 {
		fromQueue, queued = d.queue.Pick(now, d.queueCost)
	}

	// Background work runs only when no foreground work is dispatchable.
	if !queued && bestAssigned == -1 && haveIdleArm && d.bgQueue.Len() > 0 {
		pk, _ := d.bgQueue.Pick(now, d.queueCost)
		p := d.bgQueue.Take(pk)
		d.gBgDepth.Set(float64(d.bgQueue.Len()))
		d.startService(d.plan.arm, p, d.model.ControllerOverheadMs, d.plan.seekMs, d.plan.rotMs)
		return true
	}

	switch {
	case queued && (bestAssigned == -1 || fromQueue.Cost <= bestAssignedCost):
		p := d.queue.Take(fromQueue)
		d.qDepth.Set(float64(d.queue.Len()))
		d.startService(d.plan.arm, p, d.model.ControllerOverheadMs, d.plan.seekMs, d.plan.rotMs)
		return true
	case bestAssigned != -1:
		a := &d.arms[bestAssigned]
		p := *a.assigned
		a.assigned = nil
		// The seek was overlapped: pay the residual plus rotation from
		// there; the command overhead was paid at assignment time.
		d.startService(bestAssigned, p, 0, bestAssignedSeek, bestAssignedRot)
		return true
	default:
		return false
	}
}

// startService begins media access for p on the given arm, whose
// positioning the dispatch already costed: overheadMs of controller
// time, then seekMs and rotMs.
func (d *ParallelDrive) startService(armIdx int, p pending, overheadMs, seekMs, rotMs float64) {
	now := d.eng.Now()
	a := &d.arms[armIdx]
	a.busy = true
	primary := d.activeChannels == 0
	d.activeChannels++

	xferMs := d.model.TransferTime(d.geo, d.rot, p.req.LBA, p.req.Sectors)
	serviceEnd := now + overheadMs + seekMs + rotMs + xferMs

	d.hSeek.Observe(seekMs)
	d.hRot.Observe(rotMs)
	d.hXfer.Observe(xferMs)
	d.em.Service(p.obsReq, armIdx, p.submitMs, overheadMs, seekMs, rotMs, xferMs)

	if primary {
		d.acct.AddSeek(seekMs, 1)
		d.acct.Add(power.RotLatency, rotMs)
		d.acct.Add(power.Transfer, xferMs)
	} else {
		// Concurrent channel: the drive's baseline power for this wall
		// time is already charged by the primary timeline; charge only
		// the incremental VCM and channel power.
		d.acct.AddSeekIncrement(seekMs)
		d.acct.AddTransferIncrement(xferMs)
	}
	if d.cfg.OnService != nil {
		d.cfg.OnService(seekMs, rotMs, xferMs)
	}
	a.cyl = p.loc.Cyl

	a.inService = p
	d.eng.At(serviceEnd, a.complete)
}

// finishService retires arm armIdx's in-service request at its service
// end and frees the arm and its channel.
func (d *ParallelDrive) finishService(armIdx int) {
	a := &d.arms[armIdx]
	p := a.inService
	a.inService = pending{} // release the done callback
	a.busy = false
	a.serviced++
	d.activeChannels--
	if p.background {
		d.bgCompleted++
	} else {
		d.completed++
	}
	if p.req.Read {
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	} else {
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	d.em.Complete(p.obsReq, armIdx, p.submitMs)
	if p.done != nil {
		p.done(d.eng.Now())
	}
	if d.cfg.IdleReturn {
		d.returnIdleArms(armIdx, p.loc.Cyl)
	}
	d.trySchedule()
}

// returnIdleArms repositions idle arms that have drifted far from the
// active band back toward the just-serviced cylinder. Each returning arm
// is unavailable while it moves and pays VCM energy for the trip.
func (d *ParallelDrive) returnIdleArms(servicedArm, cyl int) {
	threshold := d.model.Geom.Cylinders / 8
	for i := range d.arms {
		a := &d.arms[i]
		if i == servicedArm || a.failed || a.busy || a.assigned != nil {
			continue
		}
		dist := a.cyl - cyl
		if dist < 0 {
			dist = -dist
		}
		if dist <= threshold {
			continue
		}
		// Park a little off the target, staggered per arm, so returning
		// arms do not stack on one cylinder.
		target := cyl + (i+1)*64
		if target >= d.model.Geom.Cylinders {
			target = d.model.Geom.Cylinders - 1
		}
		seekMs := d.curve.Time(a.cyl-target) * d.seekScale
		a.busy = true
		d.acct.AddSeekIncrement(seekMs)
		d.eng.After(seekMs, func() {
			a.busy = false
			a.cyl = target
			d.trySchedule()
		})
	}
}

// preSeekAssign lets idle arms begin seeking toward queued requests
// while the channel is busy (the relaxed multi-arm-motion design).
func (d *ParallelDrive) preSeekAssign() {
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	for i := range d.arms {
		a := &d.arms[i]
		if a.failed || a.busy || a.assigned != nil {
			continue
		}
		if d.queue.Len() == 0 {
			return
		}
		d.costArm = i
		p, ok := d.queue.Pop(now, d.armCost)
		if !ok {
			return
		}
		d.qDepth.Set(float64(d.queue.Len()))
		seekMs := d.seekTime(i, &p.loc)
		held := p
		a.assigned = &held
		a.seekDoneAt = d.costStart + seekMs
		a.cyl = held.loc.Cyl
		// Overlapped motion: charge the VCM increment only.
		d.acct.AddSeekIncrement(seekMs)
	}
}

// DriveStats is a snapshot of a parallel drive's counters.
type DriveStats struct {
	Taxonomy            DASH
	Completed           uint64
	BackgroundCompleted uint64
	CacheHits           uint64
	// Queue reports the foreground dispatch queue per the obs.QueueStats
	// contract: Len is its length now, Max its high-water mark after any
	// push (including failure re-queues).
	Queue         obs.QueueStats
	HealthyArms   int
	ServicedByArm []uint64
}

// Stats returns a snapshot of the drive's counters.
func (d *ParallelDrive) Stats() DriveStats {
	return DriveStats{
		Taxonomy:            d.Taxonomy(),
		Completed:           d.completed,
		BackgroundCompleted: d.bgCompleted,
		CacheHits:           d.cacheHits,
		Queue:               obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
		HealthyArms:         d.HealthyArms(),
		ServicedByArm:       d.ServicedByArm(),
	}
}

// Snapshot captures the drive's statistics as the uniform obs surface.
// Beyond the typed fields it reports per-arm service counts
// ("armN_serviced"), the healthy-arm count, the background queue gauge
// and the mechanical-phase histograms.
func (d *ParallelDrive) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:              d.name,
		Kind:                "parallel-drive",
		Submitted:           d.submitted,
		Completed:           d.completed,
		BackgroundCompleted: d.bgCompleted,
		CacheHits:           d.cacheHits,
		Queue:               obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
	}
	d.reg.Fill(&s)
	for i := range d.arms {
		s.Counters[fmt.Sprintf("arm%d_serviced", i)] = d.arms[i].serviced
	}
	s.Counters["healthy_arms"] = uint64(d.HealthyArms())
	return s
}

var _ device.Instrumented = (*ParallelDrive)(nil)
