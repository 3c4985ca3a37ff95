package disk

import (
	"fmt"

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

// Options tunes a simulated drive.
type Options struct {
	// Sched configures the dispatch queue. The zero value means the
	// drive's default: SPTF with a 128-request scan window and a 500 ms
	// anti-starvation age cap.
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

	// WriteCache enables write-back caching (an extension beyond the
	// paper, which models enterprise write-through): writes are
	// acknowledged at cache latency and destaged to the media in the
	// background, yielding to foreground reads.
	WriteCache bool

	// Obs is the observability hookup: when Obs.Sink is non-nil every
	// request emits lifecycle span events to it, labeled Obs.Name
	// (default: the model name). A nil sink costs nothing.
	Obs obs.Options
}

// Validate reports the first problem with the options, if any.
func (o Options) Validate() error {
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
	req      trace.Request
	done     device.Done
	loc      geom.Loc // physical location of the first block, cached at submit
	flush    bool     // background destage of a write-back-cached write
	fragment bool     // extent of a defect-fragmented request (parent completes it)

	obsReq   uint64  // span-trace request id (0 when tracing is off)
	submitMs float64 // queue-entry time, for queue-wait spans
}

// Drive is a conventional single-actuator disk drive attached to a
// simulation engine.
type Drive struct {
	model  Model
	eng    simkit.Scheduler
	geo    *geom.Geometry
	curve  *mech.SeekCurve
	rot    *mech.Rotation
	buf    *cache.Cache
	queue  *sched.Queue[pending]
	flushQ *sched.Queue[pending] // write-back destage queue
	acct   *power.Accountant
	pm     *power.Model
	opts   Options

	armCyl int
	busy   bool

	// The request on the media while busy, and the completion event
	// that retires it — a method value bound once in New, so a service
	// schedules no per-request closure.
	inService pending
	complete  simkit.Event

	// Dispatch cost function, built once at construction: the policy
	// never changes, so trySchedule only refreshes costStart (now plus
	// the controller overhead, when a dispatched seek starts) instead of
	// closing over `now` on every dispatch. Nil for FCFS.
	costFn    sched.Cost[pending]
	costStart float64

	submitted uint64
	completed uint64
	cacheHits uint64
	seekScale float64
	rotScale  float64

	// Observability: the emitter (nil when tracing is off), the metrics
	// registry, and hot-path handles into it. qDepth tracks the
	// foreground dispatch queue per the obs.QueueStats contract.
	name        string
	em          *obs.Emitter
	reg         *obs.Registry
	qDepth      obs.Gauge
	gDirty      *obs.Gauge
	cFlushes    *obs.Counter
	cDefectHops *obs.Counter
	hSeek       *obs.Histogram
	hRot        *obs.Histogram
	hXfer       *obs.Histogram
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
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(1))
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
		eng:       eng,
		geo:       geo,
		curve:     curve,
		rot:       rot,
		buf:       buf,
		queue:     sched.NewQueueSized[pending](cfg, 256),
		flushQ:    sched.NewQueueSized[pending](cfg, 256),
		acct:      power.NewAccountant(pm),
		pm:        pm,
		opts:      opts,
		seekScale: device.NormalizeScale(opts.SeekScale),
		rotScale:  device.NormalizeScale(opts.RotScale),

		name:        name,
		em:          simkit.Emitter(eng, opts.Obs.Sink, name),
		reg:         reg,
		gDirty:      reg.Gauge("dirty_writes"),
		cFlushes:    reg.Counter("flushes"),
		cDefectHops: reg.Counter("defect_hops"),
		hSeek:       reg.Histogram("seek_ms", obs.PhaseEdgesMs),
		hRot:        reg.Histogram("rot_ms", obs.PhaseEdgesMs),
		hXfer:       reg.Histogram("xfer_ms", obs.PhaseEdgesMs),
	}
	d.costFn = d.buildCostFn()
	d.complete = d.finishService
	return d, nil
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
func (d *Drive) DefectHops() uint64 { return d.cDefectHops.Value() }

// Busy reports whether the drive is servicing a request.
func (d *Drive) Busy() bool { return d.busy }

// Flushes reports how many write-back destages have hit the media.
func (d *Drive) Flushes() uint64 { return d.cFlushes.Value() }

// DirtyWrites reports how many destages are still pending.
func (d *Drive) DirtyWrites() int { return d.flushQ.Len() }

// Snapshot implements device.Instrumented: the drive's uniform stats
// surface, carrying everything the legacy getters report plus the
// per-phase service-time histograms.
func (d *Drive) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:    d.name,
		Kind:      "disk",
		Submitted: d.submitted,
		Completed: d.completed,
		CacheHits: d.cacheHits,
		Queue:     obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
	}
	d.reg.Fill(&s)
	return s
}

var _ device.Instrumented = (*Drive)(nil)

// Power reports the drive's average-power breakdown over elapsed ms.
func (d *Drive) Power(elapsedMs float64) power.Breakdown {
	return d.acct.Breakdown(elapsedMs)
}

// PowerModel exposes the drive's power model (for peak-power reporting).
func (d *Drive) PowerModel() *power.Model { return d.pm }

// Submit presents a request at the current simulated time. Requests
// beyond the drive's addressable capacity panic: address validation
// belongs to the layers above, and an out-of-range block here is a
// simulator bug. With a defect table configured the addressable space
// is the user area only — the spare pool is the drive's own, and a
// request reaching into it must fail loudly rather than silently
// aliasing remapped sectors.
func (d *Drive) Submit(r trace.Request, done device.Done) {
	if r.End() > d.Capacity() {
		panic(fmt.Sprintf("disk: %s: request [%d,%d) beyond capacity %d",
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
	if d.opts.Defects != nil {
		exts, err := d.opts.Defects.Split(r.LBA, r.Sectors)
		if err != nil {
			panic(fmt.Sprintf("disk: %s: %v", d.model.Name, err))
		}
		if len(exts) > 1 {
			// The request fragments around remapped sectors: service every
			// extent mechanically and complete when the last one lands.
			// (Firmware caches logically; this model skips cache insertion
			// for fragmented requests — a read of the exact range will
			// fragment again, which is the behavior defects actually cost.)
			d.cDefectHops.Inc()
			outstanding := len(exts)
			var last float64
			for _, e := range exts {
				sub := pending{
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
							d.em.Complete(req, -1, now)
							if done != nil {
								done(last)
							}
						}
					},
				}
				d.queue.Push(sub, now)
				d.qDepth.Set(float64(d.queue.Len()))
			}
			d.trySchedule()
			return
		}
	}
	if !r.Read && d.opts.WriteCache {
		// Write-back: acknowledge at cache latency, destage later.
		d.buf.InsertWrite(r.LBA, r.Sectors)
		d.eng.After(d.model.CacheHitMs, func() {
			d.completed++
			d.em.CacheHit(req, d.model.CacheHitMs)
			d.em.Complete(req, -1, now)
			if done != nil {
				done(d.eng.Now())
			}
		})
		d.flushQ.Push(pending{req: r, loc: d.geo.Locate(r.LBA), flush: true, submitMs: now}, now)
		d.gDirty.Set(float64(d.flushQ.Len()))
		d.trySchedule()
		return
	}
	d.queue.Push(pending{req: r, done: done, loc: d.geo.Locate(r.LBA), obsReq: req, submitMs: now}, now)
	d.qDepth.Set(float64(d.queue.Len()))
	d.trySchedule()
}

// positioning computes the mechanical positioning cost of starting
// service at the given location at time `at` from the current arm
// position.
func (d *Drive) positioning(loc geom.Loc, at float64) (seekMs, rotMs float64) {
	dist := d.armCyl - loc.Cyl
	seekMs = d.curve.Time(dist) * d.seekScale
	atTrack := at + d.model.ControllerOverheadMs + seekMs
	rotMs = d.rot.LatencyTo(loc.Angle, atTrack) * d.rotScale
	return seekMs, rotMs
}

// trySchedule dispatches the next queued request if the drive is free.
func (d *Drive) trySchedule() {
	if d.busy || (d.queue.Len() == 0 && d.flushQ.Len() == 0) {
		return
	}
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	p, ok := d.queue.Pop(now, d.costFn)
	if ok {
		d.qDepth.Set(float64(d.queue.Len()))
	} else {
		// Foreground queue empty: destage dirty writes in the background.
		if p, ok = d.flushQ.Pop(now, d.costFn); !ok {
			return
		}
		d.gDirty.Set(float64(d.flushQ.Len()))
	}
	d.busy = true
	seekMs, rotMs := d.positioning(p.loc, now)
	xferMs := d.model.TransferTime(d.geo, d.rot, p.req.LBA, p.req.Sectors)
	serviceEnd := now + d.model.ControllerOverheadMs + seekMs + rotMs + xferMs

	d.acct.AddSeek(seekMs, 1)
	d.acct.Add(power.RotLatency, rotMs)
	d.acct.Add(power.Transfer, xferMs)
	d.hSeek.Observe(seekMs)
	d.hRot.Observe(rotMs)
	d.hXfer.Observe(xferMs)
	if d.opts.OnService != nil {
		d.opts.OnService(seekMs, rotMs, xferMs)
	}
	d.armCyl = p.loc.Cyl

	if p.flush {
		// Destages complete no request; they trace under their own id.
		p.obsReq = d.em.NextReq()
	}
	d.em.Service(p.obsReq, 0, p.submitMs, d.model.ControllerOverheadMs, seekMs, rotMs, xferMs)

	d.inService = p
	d.eng.At(serviceEnd, d.complete)
}

// finishService retires the in-service request at its service end.
func (d *Drive) finishService() {
	p := d.inService
	d.inService = pending{} // release the done callback
	d.busy = false
	switch {
	case p.flush:
		// Destage: the logical write already completed at ack time
		// and the data is already in the cache.
		d.cFlushes.Inc()
		d.em.Span(p.obsReq, obs.PhaseFlush, 0, d.eng.Now(), 0)
	case p.req.Read:
		d.completed++
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	default:
		d.completed++
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	if !p.flush && !p.fragment {
		d.em.Complete(p.obsReq, 0, p.submitMs)
	}
	if p.done != nil {
		p.done(d.eng.Now())
	}
	d.trySchedule()
}

// buildCostFn builds the scheduler cost function once, at construction.
// Time-dependent policies read d.costStart, which trySchedule refreshes
// before every dispatch, so the hot loop never allocates a closure.
func (d *Drive) buildCostFn() sched.Cost[pending] {
	switch d.queue.Config().Policy {
	case sched.FCFS:
		return nil
	case sched.SSTF:
		return func(p *pending, _ float64) float64 {
			dist := d.armCyl - p.loc.Cyl
			if dist < 0 {
				dist = -dist
			}
			return float64(dist)
		}
	case sched.CLOOK:
		// Circular elevator: requests at or above the arm are served in
		// ascending order; requests below it sort after a full wrap.
		span := float64(d.geo.Cylinders())
		return func(p *pending, _ float64) float64 {
			delta := float64(p.loc.Cyl - d.armCyl)
			if delta < 0 {
				delta += span
			}
			return delta
		}
	default: // SPTF, branch-and-bound on the seek (see sched.Cost)
		return func(p *pending, bound float64) float64 {
			seekMs := d.curve.Time(d.armCyl-p.loc.Cyl) * d.seekScale
			if seekMs >= bound {
				return seekMs // its rotation cannot bring it below bound
			}
			return seekMs + d.rot.LatencyTo(p.loc.Angle, d.costStart+seekMs)*d.rotScale
		}
	}
}

// Drain runs the event loop until every submitted request has
// completed. The drive's scheduler must own its event loop (the
// sequential Engine or a partitioned LP's Runner); a bare logical
// process cannot drain the simulation from inside one window.
func (d *Drive) Drain() {
	r, ok := d.eng.(interface{ Run() })
	if !ok {
		panic("disk: Drain needs a scheduler that owns the event loop")
	}
	r.Run()
}
