package disk

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/defect"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// Options configures a drive. The zero value is a conventional drive
// (D1·A1·S1·H1 in the paper's DASH taxonomy); the last group of fields
// adds intra-disk parallelism: the paper's HC-SD-SA(n) design and the
// relaxed variants of its technical report.
type Options struct {
	// Sched configures the dispatch queue. The zero value means the
	// drive's default: SPTF with a 128-request scan window and a 500 ms
	// anti-starvation age cap. SSTF and C-LOOK cost a request by the
	// arm's cylinder, so they need a single arm.
	Sched *sched.Config
	// SeekScale and RotScale multiply each request's seek time and
	// rotational latency. They implement the paper's Figure 4 limit
	// study ((1/2)S, (1/4)S, S=0, and the R variants). Zero values mean
	// 1.0; to model "free" seeks use ZeroedScale.
	SeekScale, RotScale float64
	// OnService, when non-nil, observes the mechanical components of
	// every media access (cache hits are not reported).
	OnService func(seekMs, rotMs, xferMs float64)
	// Defects, when non-nil, applies grown-defect remapping: requests
	// touching remapped sectors split into extra extents that hop to the
	// spare area, each paying its own positioning. The drive's
	// addressable space shrinks to Defects.UserSectors().
	Defects *defect.Table

	// Obs is the observability hookup: when Obs.Sink is non-nil every
	// request emits lifecycle span events (with the servicing arm) to
	// it, labeled Obs.Name (default: the model name). A nil sink costs
	// nothing.
	Obs obs.Options

	// Actuators is the number of independent arm assemblies (n in
	// HC-SD-SA(n)). Zero means 1. Only one arm moves and one head
	// transfers at a time, so service stays serialized; the gain is
	// that SPTF dispatch picks whichever idle arm positions fastest.
	Actuators int
	// Channels relaxes the single-transfer-path constraint: up to this
	// many requests may be in service concurrently, each on its own arm
	// (the second relaxed design). Zero means 1.
	Channels int
	// HeadsPerArm puts h heads on each arm, mounted equidistant from
	// the actuation axis at spread angular positions (the paper's
	// Figure 1(b), the H dimension of the taxonomy). All heads ride the
	// same arm, so seeks are shared; the rotational latency of an access
	// is the wait until the sector reaches the *nearest* head. Zero
	// means 1.
	HeadsPerArm int
	// MultiArmMotion relaxes the single-arm-in-motion constraint: while
	// the channel is busy, idle arms pre-seek toward queued requests
	// (first relaxed design of the paper's §7.2; the paper found little
	// benefit). Power for overlapped motion is charged as VCM increments.
	MultiArmMotion bool
	// AngularOffsets optionally sets each arm assembly's angular
	// mounting position around the platter stack, as a fraction of a
	// revolution in [0,1). The paper's Figure 1 mounts assemblies
	// diagonally from each other; this placement is what shortens
	// rotational latency — a sector reaches the nearest arm in a
	// fraction of a revolution. The default spreads arms evenly
	// (arm i at i/n of a revolution).
	AngularOffsets []float64
}

func orOne(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// Validate reports the first problem with the options, if any, naming
// the offending field.
func (o Options) Validate() error {
	arms := orOne(o.Actuators)
	switch {
	case o.Actuators < 0:
		return fmt.Errorf("disk: Actuators %d must be nonnegative", o.Actuators)
	case o.Channels < 0:
		return fmt.Errorf("disk: Channels %d must be nonnegative", o.Channels)
	case o.HeadsPerArm < 0:
		return fmt.Errorf("disk: HeadsPerArm %d must be nonnegative", o.HeadsPerArm)
	case orOne(o.Channels) > arms:
		return fmt.Errorf("disk: %d channels exceed %d actuators", orOne(o.Channels), arms)
	case o.AngularOffsets != nil && len(o.AngularOffsets) != arms:
		return fmt.Errorf("disk: %d angular offsets for %d actuators", len(o.AngularOffsets), arms)
	}
	for _, a := range o.AngularOffsets {
		if !(a >= 0 && a < 1) {
			return fmt.Errorf("disk: angular offset %v outside [0,1)", a)
		}
	}
	if o.Sched != nil {
		if err := o.Sched.Validate(); err != nil {
			return fmt.Errorf("disk: Sched.%w", err)
		}
		if p := o.Sched.Policy; arms > 1 && (p == sched.SSTF || p == sched.CLOOK) {
			// These costs order requests by one arm's cylinder; with
			// several arms there is no such cylinder.
			return fmt.Errorf("disk: Sched.Policy %v needs one actuator, not %d (use FCFS or SPTF)", p, arms)
		}
	}
	if err := device.ValidateScale("SeekScale", o.SeekScale); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	if err := device.ValidateScale("RotScale", o.RotScale); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	return nil
}

// ZeroedScale is a scale value meaning "exactly zero" — distinguishable
// from an unset (default 1.0) scale (see device.NormalizeScale).
const ZeroedScale = device.ZeroedScale

// DefaultSchedConfig is the dispatch configuration drives use when the
// caller does not override it: the paper's SPTF policy, with a bounded
// scan window and an age cap to prevent starvation under overload.
func DefaultSchedConfig() sched.Config {
	return sched.Config{Policy: sched.SPTF, Window: 128, MaxAgeMs: 500}
}

type pending struct {
	req  trace.Request
	done device.Done
	loc  geom.Loc // physical location of the first block, cached at submit

	background bool // a SubmitBackground request (completes in bgCompleted)
	fragment   bool // extent of a defect-fragmented request (parent completes it)

	obsReq   uint64  // span-trace request id (0 when tracing is off)
	submitMs float64 // queue-entry time, for queue-wait spans
}

type arm struct {
	// cyl is where the arm last serviced (or is pre-seeking to). Every
	// arm starts at cylinder 0 and spreads through use, which keeps all
	// arms inside the workload's active region. (Spreading arms evenly across the stroke
	// strands the far arms when the footprint is concentrated: a long
	// seek always loses the dispatch cost race to waiting out the
	// rotation on a nearer arm.)
	cyl    int
	alpha  float64 // angular mounting position, fraction of a revolution
	failed bool
	busy   bool // servicing a request (holds a channel)

	// Pre-seek assignment state (MultiArmMotion only): the slab slot of
	// the request the arm is seeking toward, or noSlot.
	assigned   int32
	seekDoneAt float64

	// The request this arm is servicing (valid while busy; an arm holds
	// at most one service), and the completion event that retires it,
	// built once in New so a service schedules no per-request closure.
	inService pending
	complete  simkit.Event

	serviced uint64
}

// idle reports whether the arm can take a dispatch.
func (a *arm) idle() bool { return !a.failed && !a.busy && a.assigned == noSlot }

// noSlot marks an arm without a pre-seek assignment.
const noSlot int32 = -1

// Drive is a disk drive attached to a simulation engine: one spindle
// and platter stack reached by one or more independently positioned arm
// assemblies. A foreground queue feeds the arms under the configured
// policy; background-class work (SubmitBackground requests) runs only
// when no foreground request can.
type Drive struct {
	model Model
	opts  Options
	eng   simkit.Scheduler
	geo   *geom.Geometry
	curve *mech.SeekCurve
	rot   *mech.Rotation
	buf   *cache.Cache
	acct  *power.Accountant
	pm    *power.Model
	spin  *spindle // the dynamic-RPM policy; nil at fixed speed

	// Queued requests live in slab, reused through the free list; the
	// foreground and background queues hold slab indices, so a queue
	// operation moves a small entry rather than a whole pending record.
	// A slot is taken at submit and freed when its service starts.
	slab    []pending
	free    []int32
	queue   *sched.Queue[int32]
	bgQueue *sched.Queue[int32]

	// hits is the free list of cache-hit completion records.
	hits []*cacheHitRec

	arms           []arm
	activeChannels int
	channels       int       // opts.Channels, normalized once in New
	extraHeads     []float64 // head h>0 sits extraHeads[h-1] of a revolution past its arm's head 0
	idleArms       int       // arms for which idle() holds
	assignedArms   int       // arms holding a pre-seek assignment

	// Dispatch cost functions, built once at construction so the hot
	// loop never allocates a closure. Both follow the sched.Cost bound
	// contract and read costStart (and armCost additionally costArm),
	// which dispatchOne / preSeekAssign refresh before each queue scan.
	queueCost sched.Cost[int32] // the policy's cost of a queued request
	armCost   sched.Cost[int32] // SPTF positioning cost for arm costArm
	costStart float64           // now + ControllerOverheadMs: when a dispatched seek starts
	costArm   int

	// plan is the best idle arm for the entry of the last planArm call
	// that returned below its bound — after an SPTF queue scan, the
	// picked entry's — with that arm's seek and rotational latency, so
	// the dispatch starts service without re-costing its winner. Each
	// dispatch clears it (arm -1) before picking.
	plan struct {
		arm           int
		seekMs, rotMs float64
	}

	// extents is the defect split's buffer, reused by every Submit.
	extents []defect.Extent

	submitted   uint64
	completed   uint64
	bgCompleted uint64
	cacheHits   uint64
	defectHops  uint64
	seekScale   float64
	rotScale    float64

	// Observability: the emitter (nil when tracing is off), the metrics
	// registry, and hot-path handles into it. qDepth tracks the
	// foreground dispatch queue per the obs.QueueStats contract;
	// background-class work is tracked separately in bgDepth.
	name    string
	em      *obs.Emitter
	reg     *obs.Registry
	qDepth  obs.Gauge
	bgDepth obs.Gauge
	hSeek   *obs.Histogram
	hRot    *obs.Histogram
	hXfer   *obs.Histogram
}

var _ device.Device = (*Drive)(nil)

// New attaches a new drive built from model to the scheduler — the
// sequential engine or one logical process of the partitioned engine.
func New(eng simkit.Scheduler, model Model, opts Options) (*Drive, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	geo, err := geom.New(model.Geom)
	if err != nil {
		return nil, err
	}
	curve, err := mech.NewSeekCurve(model.seekSpec())
	if err != nil {
		return nil, err
	}
	rot, err := mech.NewRotation(model.RPM)
	if err != nil {
		return nil, err
	}
	buf, err := cache.New(model.cacheConfig())
	if err != nil {
		return nil, err
	}
	n := orOne(opts.Actuators)
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(n))
	if err != nil {
		return nil, err
	}
	cfg := DefaultSchedConfig()
	if opts.Sched != nil {
		cfg = *opts.Sched
	}
	name := opts.Obs.Label(model.Name)
	reg := obs.NewRegistry()
	d := &Drive{
		model:     model,
		opts:      opts,
		eng:       eng,
		geo:       geo,
		curve:     curve,
		rot:       rot,
		buf:       buf,
		queue:     sched.NewQueueSized[int32](cfg, 256),
		bgQueue:   sched.NewQueue[int32](cfg),
		acct:      power.NewAccountant(pm),
		pm:        pm,
		arms:      make([]arm, n),
		channels:  orOne(opts.Channels),
		idleArms:  n,
		seekScale: device.NormalizeScale(opts.SeekScale),
		rotScale:  device.NormalizeScale(opts.RotScale),

		name:  name,
		em:    obs.NewEmitter(eng, opts.Obs.Sink, name),
		reg:   reg,
		hSeek: reg.Histogram("seek_ms", obs.PhaseEdgesMs),
		hRot:  reg.Histogram("rot_ms", obs.PhaseEdgesMs),
		hXfer: reg.Histogram("xfer_ms", obs.PhaseEdgesMs),
	}
	heads := orOne(opts.HeadsPerArm)
	for h := 1; h < heads; h++ {
		d.extraHeads = append(d.extraHeads, float64(h)/float64(heads))
	}
	for i := range d.arms {
		a := &d.arms[i]
		if opts.AngularOffsets != nil {
			a.alpha = opts.AngularOffsets[i]
		} else {
			a.alpha = float64(i) / float64(n)
		}
		a.assigned = noSlot
		a.complete = func() { d.finishService(i) }
	}
	d.buildCosts(cfg.Policy)
	return d, nil
}

// buildCosts builds the dispatch cost functions once, at construction.
func (d *Drive) buildCosts(policy sched.Policy) {
	switch policy {
	case sched.SSTF:
		d.queueCost = func(i *int32, _ float64) float64 {
			dist := d.arms[0].cyl - d.slab[*i].loc.Cyl
			if dist < 0 {
				dist = -dist
			}
			return float64(dist)
		}
	case sched.CLOOK:
		// Circular elevator: requests at or above the arm are served in
		// ascending order; requests below it sort after a full wrap.
		span := float64(d.geo.Cylinders())
		d.queueCost = func(i *int32, _ float64) float64 {
			delta := float64(d.slab[*i].loc.Cyl - d.arms[0].cyl)
			if delta < 0 {
				delta += span
			}
			return delta
		}
	default: // SPTF, and FCFS, whose scans cost at most the front entry
		d.queueCost = d.planArm
	}
	d.armCost = func(i *int32, bound float64) float64 {
		a := &d.arms[d.costArm]
		loc := &d.slab[*i].loc
		seekMs := d.curve.Time(a.cyl-loc.Cyl) * d.seekScale
		if seekMs >= bound {
			return seekMs // its rotation cannot bring it below bound
		}
		return seekMs + d.rotLatency(a, loc, d.costStart+seekMs)
	}
}

// Model returns the drive's static model.
func (d *Drive) Model() Model { return d.model }

// Geometry returns the drive's derived geometry.
func (d *Drive) Geometry() *geom.Geometry { return d.geo }

// Capacity reports the drive's addressable size in sectors (excluding
// the spare pool when a defect table is configured).
func (d *Drive) Capacity() int64 {
	if d.opts.Defects != nil {
		return d.opts.Defects.UserSectors()
	}
	return d.geo.TotalSectors()
}

// DefectHops reports how many requests needed extra extents because of
// grown-defect remapping.
func (d *Drive) DefectHops() uint64 { return d.defectHops }

// Busy reports whether the drive is servicing a request.
func (d *Drive) Busy() bool { return d.activeChannels > 0 }

// Actuators reports the arm-assembly count.
func (d *Drive) Actuators() int { return len(d.arms) }

// HealthyArms reports how many arm assemblies remain in service.
func (d *Drive) HealthyArms() int {
	n := 0
	for i := range d.arms {
		if !d.arms[i].failed {
			n++
		}
	}
	return n
}

// ServicedByArm reports per-arm service counts (index = arm number).
func (d *Drive) ServicedByArm() []uint64 {
	out := make([]uint64, len(d.arms))
	for i := range d.arms {
		out[i] = d.arms[i].serviced
	}
	return out
}

// BackgroundCompleted reports how many background requests finished.
func (d *Drive) BackgroundCompleted() uint64 { return d.bgCompleted }

// BackgroundPending reports how many SubmitBackground requests are
// queued.
func (d *Drive) BackgroundPending() int { return d.bgQueue.Len() }

// Snapshot implements device.Instrumented: the drive's uniform stats
// surface, with the defect-hop counter, the background queue gauge
// ("bg_queue_len") and the per-phase service-time histograms.
func (d *Drive) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:              d.name,
		Kind:                "disk",
		Submitted:           d.submitted,
		Completed:           d.completed,
		BackgroundCompleted: d.bgCompleted,
		CacheHits:           d.cacheHits,
		Queue:               obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
	}
	d.reg.Fill(&s)
	s.Counters["defect_hops"] = d.defectHops
	s.Gauges["bg_queue_len"] = obs.GaugeValue{Value: d.bgDepth.Value(), Max: d.bgDepth.Max()}
	if d.spin != nil {
		d.spin.snapshot(&s)
	}
	return s
}

var _ device.Instrumented = (*Drive)(nil)

// Power reports the drive's average-power breakdown over elapsed ms.
func (d *Drive) Power(elapsedMs float64) power.Breakdown {
	if d.spin != nil {
		return d.spin.power(elapsedMs)
	}
	return d.acct.Breakdown(elapsedMs)
}

// PowerModel exposes the drive's power model (for peak-power reporting).
func (d *Drive) PowerModel() *power.Model { return d.pm }

// FailArm deconfigures one arm assembly at runtime — the §8 graceful
// degradation path (a SMART-style predicted failure takes the actuator
// out of service while the drive keeps running on the remaining arms).
// An in-flight service on the arm completes; the arm just takes no
// further work. Failing the last healthy arm is refused.
func (d *Drive) FailArm(i int) error {
	if i < 0 || i >= len(d.arms) {
		return fmt.Errorf("disk: arm %d out of range [0,%d)", i, len(d.arms))
	}
	if d.arms[i].failed {
		return fmt.Errorf("disk: arm %d already deconfigured", i)
	}
	if d.HealthyArms() == 1 {
		return fmt.Errorf("disk: refusing to deconfigure the last healthy arm")
	}
	a := &d.arms[i]
	if a.idle() {
		d.idleArms--
	}
	a.failed = true
	// A pre-seek assignment is abandoned; the request goes back to the
	// queue so another arm picks it up.
	if a.assigned != noSlot {
		d.queue.Push(a.assigned, d.eng.Now())
		a.assigned = noSlot
		d.assignedArms--
		d.qDepth.Set(float64(d.queue.Len()))
	}
	return nil
}

// outOfRange panics on a request beyond the addressable capacity:
// address validation belongs to the layers above, and an out-of-range
// block here is a simulator bug. With a defect table configured the
// addressable space is the user area only — the spare pool is the
// drive's own, and a request reaching into it must fail loudly rather
// than silently aliasing remapped sectors.
func (d *Drive) outOfRange(r trace.Request) {
	panic(fmt.Sprintf("disk: %s: request [%d,%d) beyond capacity %d",
		d.model.Name, r.LBA, r.End(), d.Capacity()))
}

// cacheHitRec is one cache hit waiting out the cache-hit latency. The
// drive keeps finished records on a free list, and each record's event
// is bound once when it is built, so a hit schedules no closure.
type cacheHitRec struct {
	d         *Drive
	req       uint64
	submitMs  float64
	completed *uint64
	done      device.Done
	fire      simkit.Event // r.finish, bound once
}

// cacheHit completes an accepted request from the buffer after the
// cache-hit latency, counting it in *completed.
func (d *Drive) cacheHit(req uint64, now float64, completed *uint64, done device.Done) {
	var r *cacheHitRec
	if n := len(d.hits); n > 0 {
		r = d.hits[n-1]
		d.hits = d.hits[:n-1]
	} else {
		r = &cacheHitRec{d: d}
		r.fire = r.finish
	}
	r.req, r.submitMs, r.completed, r.done = req, now, completed, done
	d.eng.After(d.model.CacheHitMs, r.fire)
}

// finish completes the hit. The record goes back on the free list
// before done runs, so a submit from done can reuse it.
func (r *cacheHitRec) finish() {
	d, req, submitMs, done := r.d, r.req, r.submitMs, r.done
	*r.completed++
	r.completed, r.done = nil, nil
	d.hits = append(d.hits, r)
	d.em.CacheHit(req, d.model.CacheHitMs)
	d.em.Complete(req, -1, submitMs)
	if done != nil {
		done(d.eng.Now())
	}
}

// alloc takes a free slab slot. The slab grows by doubling, as
// stats.Sample does: a deep queue's slab would otherwise allocate about
// five times its final size through append's 1.25x steps.
func (d *Drive) alloc() int32 {
	n := len(d.free)
	if n == 0 {
		if len(d.slab) == cap(d.slab) {
			grown := make([]pending, len(d.slab), max(2*cap(d.slab), 8))
			copy(grown, d.slab)
			d.slab = grown
		}
		d.slab = append(d.slab, pending{})
		return int32(len(d.slab) - 1)
	}
	i := d.free[n-1]
	d.free = d.free[:n-1]
	return i
}

// enqueue takes a free slab slot, queues it on q as arriving at `at`,
// and returns its record for the caller to fill in place. The pointer
// is valid until the next alloc, and the record must be filled before
// anything dispatches.
func (d *Drive) enqueue(q *sched.Queue[int32], at float64) *pending {
	i := d.alloc()
	q.Push(i, at)
	return &d.slab[i]
}

// Submit presents a request at the current simulated time. Requests
// beyond the drive's addressable capacity panic (see outOfRange).
func (d *Drive) Submit(r trace.Request, done device.Done) {
	if r.End() > d.Capacity() {
		d.outOfRange(r)
	}
	now := d.eng.Now()
	d.submitted++
	req := d.em.NextReq()
	d.em.Submit(req, r.LBA, r.Sectors, r.Read)
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.cacheHit(req, now, &d.completed, done)
		return
	}
	if d.opts.Defects != nil {
		exts, err := d.opts.Defects.Split(d.extents[:0], r.LBA, r.Sectors)
		d.extents = exts
		if err != nil {
			panic(fmt.Sprintf("disk: %s: %v", d.model.Name, err))
		}
		if len(exts) > 1 {
			// The request fragments around remapped sectors: service every
			// extent mechanically and complete when the last one lands.
			// (Firmware caches logically; this model skips cache insertion
			// for fragmented requests — a read of the exact range will
			// fragment again, which is the behavior defects actually cost.)
			d.defectHops++
			outstanding := len(exts)
			var last float64
			for _, e := range exts {
				sub := d.enqueue(d.queue, now)
				*sub = pending{
					req:      trace.Request{LBA: e.LBA, Sectors: e.Sectors, Read: r.Read},
					loc:      d.geo.Locate(e.LBA),
					fragment: true,
					obsReq:   req,
					submitMs: now,
					done: func(at float64) {
						if at > last {
							last = at
						}
						outstanding--
						if outstanding == 0 {
							d.completed++
							d.em.Complete(req, -1, now)
							if done != nil {
								done(last)
							}
						}
					},
				}
				d.qDepth.Set(float64(d.queue.Len()))
			}
			d.trySchedule()
			return
		}
	}
	p := d.enqueue(d.queue, now)
	*p = pending{req: r, done: done, obsReq: req, submitMs: now}
	p.loc = d.geo.Locate(r.LBA)
	d.qDepth.Set(float64(d.queue.Len()))
	if d.spin != nil {
		d.spin.submitted()
	}
	d.trySchedule()
}

// SubmitBackground presents a background-class request: it is serviced
// only when no foreground request is pending, using whatever actuator is
// free. This provides the functionality of freeblock scheduling (§5 of
// the paper) with dedicated hardware instead of rotational-gap stealing:
// background work never delays a queued foreground request, and unlike
// freeblock scheduling it is not constrained to finish within a
// foreground request's rotational latency window.
func (d *Drive) SubmitBackground(r trace.Request, done device.Done) {
	if r.End() > d.Capacity() {
		d.outOfRange(r)
	}
	now := d.eng.Now()
	d.submitted++
	req := d.em.NextReq()
	d.em.Submit(req, r.LBA, r.Sectors, r.Read)
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.cacheHit(req, now, &d.bgCompleted, done)
		return
	}
	p := d.enqueue(d.bgQueue, now)
	*p = pending{req: r, done: done, background: true, obsReq: req, submitMs: now}
	p.loc = d.geo.Locate(r.LBA)
	d.bgDepth.Set(float64(d.bgQueue.Len()))
	d.trySchedule()
}

// rotLatency is the scaled rotational latency for arm a, on track at
// time atTrack, to begin service at loc: the wait until the sector
// reaches the nearest of the arm's heads.
func (d *Drive) rotLatency(a *arm, loc *geom.Loc, atTrack float64) float64 {
	base := loc.Angle - a.alpha
	rotMs := d.rot.LatencyTo(wrapAngle(base), atTrack)
	for _, h := range d.extraHeads {
		if r := d.rot.LatencyTo(wrapAngle(base-h), atTrack); r < rotMs {
			rotMs = r
		}
	}
	return rotMs * d.rotScale
}

// wrapAngle brings a platter angle difference back into [0,1).
func wrapAngle(t float64) float64 {
	for t < 0 {
		t += 1
	}
	return t
}

// planArm is the SPTF cost of dispatching the request in slab slot
// *slot at costStart: the lowest positioning time (seek + rotational
// latency) over the idle arms, ties going to the lowest arm. It is
// branch-and-bound under the sched.Cost contract: an arm whose scaled
// seek alone already reaches bound, or the best arm so far, is skipped
// without computing its rotation, since a non-negative rotation cannot
// bring it back below. A result below bound is exact and makes the
// request the scan's new best, so planArm records its
// arm, seek and rotation in d.plan; otherwise it returns bound and
// leaves d.plan alone. With bound +Inf it is the exhaustive choice.
func (d *Drive) planArm(slot *int32, bound float64) float64 {
	loc := &d.slab[*slot].loc
	for i := range d.arms {
		a := &d.arms[i]
		if !a.idle() {
			continue
		}
		seekMs := d.curve.Time(a.cyl-loc.Cyl) * d.seekScale
		if seekMs >= bound {
			continue
		}
		rotMs := d.rotLatency(a, loc, d.costStart+seekMs)
		if c := seekMs + rotMs; c < bound {
			bound = c
			d.plan.arm, d.plan.seekMs, d.plan.rotMs = i, seekMs, rotMs
		}
	}
	return bound
}

// trySchedule starts as many services as free channels allow, then (in
// the multi-arm-motion variant) assigns idle arms to pre-seek.
func (d *Drive) trySchedule() {
	for d.activeChannels < d.channels && d.dispatchOne() {
	}
	if d.opts.MultiArmMotion && d.idleArms > 0 && d.queue.Len() > 0 {
		d.preSeekAssign()
	}
}

// dispatchOne starts one service if work and an arm are available and
// the spindle is not changing speed: the best queued foreground request
// on its best idle arm, or a pre-seeked arm's request if that is
// cheaper, or else background work.
func (d *Drive) dispatchOne() bool {
	idleWork := d.idleArms > 0 && (d.queue.Len() > 0 || d.bgQueue.Len() > 0)
	if !idleWork && d.assignedArms == 0 || d.spin != nil && d.spin.transitioning {
		return false
	}
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	d.plan.arm = -1

	// Candidate 1: a pre-positioned arm holding an assignment.
	bestAssigned := -1
	var bestAssignedCost, bestAssignedSeek, bestAssignedRot float64
	for i := 0; d.assignedArms > 0 && i < len(d.arms); i++ {
		a := &d.arms[i]
		if a.assigned == noSlot || a.busy || a.failed {
			continue
		}
		rem := a.seekDoneAt - now
		if rem < 0 {
			rem = 0
		}
		rot := d.rotLatency(a, &d.slab[a.assigned].loc, now+rem)
		if c := rem + rot; bestAssigned == -1 || c < bestAssignedCost {
			bestAssigned, bestAssignedCost = i, c
			bestAssignedSeek, bestAssignedRot = rem, rot
		}
	}

	// Candidate 2: the best (request, idle arm) pair from the queue. One
	// cost scan serves both the comparison against a pre-seeked
	// candidate and the dispatch itself: Take removes what Pick chose.
	if d.idleArms > 0 && d.queue.Len() > 0 {
		if bestAssigned == -1 {
			i, _ := d.queue.Pop(now, d.queueCost)
			d.qDepth.Set(float64(d.queue.Len()))
			d.startPlanned(i, now)
			return true
		}
		if pk, _ := d.queue.Pick(now, d.queueCost); pk.Cost <= bestAssignedCost {
			i := d.queue.Take(pk)
			d.qDepth.Set(float64(d.queue.Len()))
			d.startPlanned(i, now)
			return true
		}
	}
	if bestAssigned != -1 {
		a := &d.arms[bestAssigned]
		i := a.assigned
		a.assigned = noSlot
		d.assignedArms--
		// The seek was overlapped: pay the residual plus rotation from
		// there; the command overhead was paid at assignment time.
		d.startService(bestAssigned, i, now, 0, bestAssignedSeek, bestAssignedRot)
		return true
	}
	// Background work runs only when no foreground work is dispatchable.
	if idleWork {
		i, _ := d.bgQueue.Pop(now, d.queueCost)
		d.bgDepth.Set(float64(d.bgQueue.Len()))
		d.startPlanned(i, now)
		return true
	}
	return false
}

// startPlanned starts the request in slab slot i, just taken from a
// queue, on the idle arm the dispatch planned for it. A pick no SPTF
// scan costed (FCFS, an age-forced front, or the distance-ordered SSTF
// and C-LOOK) left no plan, so it is planned here.
func (d *Drive) startPlanned(i int32, now float64) {
	if d.plan.arm < 0 {
		d.planArm(&i, math.Inf(1))
	}
	d.idleArms--
	d.startService(d.plan.arm, i, now, d.model.ControllerOverheadMs, d.plan.seekMs, d.plan.rotMs)
}

// startService begins media access for the request in slab slot i on
// the given arm at now, whose positioning the dispatch already costed:
// overheadMs of controller time, then seekMs and rotMs. The request
// moves into the arm and its slot goes back on the free list.
func (d *Drive) startService(armIdx int, i int32, now, overheadMs, seekMs, rotMs float64) {
	a := &d.arms[armIdx]
	a.busy = true
	primary := d.activeChannels == 0
	d.activeChannels++
	a.inService = d.slab[i]
	d.slab[i].done = nil // release the callback; the slot is free
	d.free = append(d.free, i)
	p := &a.inService

	xferMs := d.model.transferAt(d.geo, d.rot, &p.loc, p.req.LBA, p.req.Sectors)
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
	if d.opts.OnService != nil {
		d.opts.OnService(seekMs, rotMs, xferMs)
	}
	a.cyl = p.loc.Cyl
	d.eng.At(serviceEnd, a.complete)
}

// finishService retires arm armIdx's in-service request at its service
// end and frees the arm and its channel.
func (d *Drive) finishService(armIdx int) {
	a := &d.arms[armIdx]
	// Read the in-service record in place: nothing below re-enters the
	// drive before done runs, and done may start the arm's next
	// service, so the callback is taken out first.
	p := &a.inService
	done := p.done
	p.done = nil // release the callback
	a.busy = false
	if a.idle() {
		d.idleArms++
	}
	a.serviced++
	d.activeChannels--
	// A fragment's request is counted once, by its last extent's done.
	if p.background {
		d.bgCompleted++
	} else if !p.fragment {
		d.completed++
	}
	if p.req.Read {
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	} else {
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	if !p.fragment {
		d.em.Complete(p.obsReq, armIdx, p.submitMs)
	}
	if done != nil {
		done(d.eng.Now())
	}
	if d.spin != nil && d.queue.Len() == 0 {
		d.spin.armIdle() // idle from here unless a request arrives
	}
	d.trySchedule()
}

// preSeekAssign lets idle arms begin seeking toward queued requests
// while the channel is busy (the relaxed multi-arm-motion design).
func (d *Drive) preSeekAssign() {
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	for i := range d.arms {
		a := &d.arms[i]
		if !a.idle() {
			continue
		}
		if d.queue.Len() == 0 {
			return
		}
		d.costArm = i
		slot, ok := d.queue.Pop(now, d.armCost)
		if !ok {
			return
		}
		d.qDepth.Set(float64(d.queue.Len()))
		cyl := d.slab[slot].loc.Cyl
		seekMs := d.curve.Time(a.cyl-cyl) * d.seekScale
		a.assigned = slot
		d.idleArms--
		d.assignedArms++
		a.seekDoneAt = d.costStart + seekMs
		a.cyl = cyl
		// Overlapped motion: charge the VCM increment only.
		d.acct.AddSeekIncrement(seekMs)
	}
}
