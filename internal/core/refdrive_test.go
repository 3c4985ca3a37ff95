package core

// refDrive is the conventional drive as it stood before disk.Drive
// became the multi-arm engine: one arm, a foreground queue, the four
// dispatch costs, defect splitting, and its own completion event and
// snapshot. It is kept verbatim apart from renames, the model's
// unexported seek and cache specs written out, the option type and
// default dispatch config, which it takes from package disk, and the
// removal of the write-back destage path and the Drain method, which
// the engine no longer has. It is the differential reference the
// engine must reproduce bit for bit: every completion time, every
// per-mode watt, every trace span and the snapshot bytes (see
// differential_test.go).

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/defect"
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

type refPending struct {
	req      trace.Request
	done     device.Done
	loc      geom.Loc // physical location of the first block, cached at submit
	fragment bool     // extent of a defect-fragmented request (parent completes it)

	obsReq   uint64  // span-trace request id (0 when tracing is off)
	submitMs float64 // queue-entry time, for queue-wait spans
}

// refDrive is a conventional single-actuator disk drive attached to a
// simulation engine.
type refDrive struct {
	model disk.Model
	eng   simkit.Scheduler
	geo   *geom.Geometry
	curve *mech.SeekCurve
	rot   *mech.Rotation
	buf   *cache.Cache
	queue *sched.Queue[refPending]
	acct  *power.Accountant
	pm    *power.Model
	opts  disk.Options

	armCyl int
	busy   bool

	// The request on the media while busy, and the completion event
	// that retires it — a method value bound once in New, so a service
	// schedules no per-request closure.
	inService refPending
	complete  simkit.Event

	// Dispatch cost function, built once at construction: the policy
	// never changes, so trySchedule only refreshes costStart (now plus
	// the controller overhead, when a dispatched seek starts) instead of
	// closing over `now` on every dispatch. Nil for FCFS.
	costFn    sched.Cost[refPending]
	costStart float64

	// extents is the defect split's buffer, reused by every Submit.
	extents []defect.Extent

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
	cDefectHops *obs.Counter
	hSeek       *obs.Histogram
	hRot        *obs.Histogram
	hXfer       *obs.Histogram
}

var _ device.Device = (*refDrive)(nil)

// newRefDrive attaches a new drive built from model to the scheduler — the
// sequential engine or one logical process of the partitioned engine.
func newRefDrive(eng simkit.Scheduler, model disk.Model, opts disk.Options) (*refDrive, error) {
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
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(1))
	if err != nil {
		return nil, err
	}
	cfg := disk.DefaultSchedConfig()
	if opts.Sched != nil {
		cfg = *opts.Sched
	}
	name := opts.Obs.Label(model.Name)
	reg := obs.NewRegistry()
	d := &refDrive{
		model:     model,
		eng:       eng,
		geo:       geo,
		curve:     curve,
		rot:       rot,
		buf:       buf,
		queue:     sched.NewQueueSized[refPending](cfg, 256),
		acct:      power.NewAccountant(pm),
		pm:        pm,
		opts:      opts,
		seekScale: device.NormalizeScale(opts.SeekScale),
		rotScale:  device.NormalizeScale(opts.RotScale),

		name:        name,
		em:          obs.NewEmitter(eng, opts.Obs.Sink, name),
		reg:         reg,
		cDefectHops: reg.Counter("defect_hops"),
		hSeek:       reg.Histogram("seek_ms", obs.PhaseEdgesMs),
		hRot:        reg.Histogram("rot_ms", obs.PhaseEdgesMs),
		hXfer:       reg.Histogram("xfer_ms", obs.PhaseEdgesMs),
	}
	// The background queue gauge the engine reports; this drive takes
	// no background work, so it stays at zero.
	reg.Gauge("bg_queue_len")
	d.costFn = d.buildCostFn()
	d.complete = d.finishService
	return d, nil
}

// Model returns the drive's static model.
func (d *refDrive) Model() disk.Model { return d.model }

// Geometry returns the drive's derived geometry.
func (d *refDrive) Geometry() *geom.Geometry { return d.geo }

// Capacity reports the drive's addressable size in sectors (excluding
// the spare pool when a defect table is configured).
func (d *refDrive) Capacity() int64 {
	if d.opts.Defects != nil {
		return d.opts.Defects.UserSectors()
	}
	return d.geo.TotalSectors()
}

// DefectHops reports how many requests needed extra extents because of
// grown-defect remapping.
func (d *refDrive) DefectHops() uint64 { return d.cDefectHops.Value() }

// Busy reports whether the drive is servicing a request.
func (d *refDrive) Busy() bool { return d.busy }

// Snapshot implements device.Instrumented: the drive's uniform stats
// surface, carrying everything the legacy getters report plus the
// per-phase service-time histograms.
func (d *refDrive) Snapshot() obs.Snapshot {
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

var _ device.Instrumented = (*refDrive)(nil)

// Power reports the drive's average-power breakdown over elapsed ms.
func (d *refDrive) Power(elapsedMs float64) power.Breakdown {
	return d.acct.Breakdown(elapsedMs)
}

// PowerModel exposes the drive's power model (for peak-power reporting).
func (d *refDrive) PowerModel() *power.Model { return d.pm }

// Submit presents a request at the current simulated time. Requests
// beyond the drive's addressable capacity panic: address validation
// belongs to the layers above, and an out-of-range block here is a
// simulator bug. With a defect table configured the addressable space
// is the user area only — the spare pool is the drive's own, and a
// request reaching into it must fail loudly rather than silently
// aliasing remapped sectors.
func (d *refDrive) Submit(r trace.Request, done device.Done) {
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
			d.cDefectHops.Inc()
			outstanding := len(exts)
			var last float64
			for _, e := range exts {
				sub := refPending{
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
				d.queue.Push(sub, now)
				d.qDepth.Set(float64(d.queue.Len()))
			}
			d.trySchedule()
			return
		}
	}
	d.queue.Push(refPending{req: r, done: done, loc: d.geo.Locate(r.LBA), obsReq: req, submitMs: now}, now)
	d.qDepth.Set(float64(d.queue.Len()))
	d.trySchedule()
}

// positioning computes the mechanical positioning cost of starting
// service at the given location at time `at` from the current arm
// position.
func (d *refDrive) positioning(loc geom.Loc, at float64) (seekMs, rotMs float64) {
	dist := d.armCyl - loc.Cyl
	seekMs = d.curve.Time(dist) * d.seekScale
	atTrack := at + d.model.ControllerOverheadMs + seekMs
	rotMs = d.rot.LatencyTo(loc.Angle, atTrack) * d.rotScale
	return seekMs, rotMs
}

// trySchedule dispatches the next queued request if the drive is free.
func (d *refDrive) trySchedule() {
	if d.busy || d.queue.Len() == 0 {
		return
	}
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	p, _ := d.queue.Pop(now, d.costFn)
	d.qDepth.Set(float64(d.queue.Len()))
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

	d.em.Service(p.obsReq, 0, p.submitMs, d.model.ControllerOverheadMs, seekMs, rotMs, xferMs)

	d.inService = p
	d.eng.At(serviceEnd, d.complete)
}

// finishService retires the in-service request at its service end.
func (d *refDrive) finishService() {
	p := d.inService
	d.inService = refPending{} // release the done callback
	d.busy = false
	if !p.fragment {
		d.completed++
	}
	if p.req.Read {
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	} else {
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	if !p.fragment {
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
func (d *refDrive) buildCostFn() sched.Cost[refPending] {
	switch d.queue.Config().Policy {
	case sched.FCFS:
		return nil
	case sched.SSTF:
		return func(p *refPending, _ float64) float64 {
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
		return func(p *refPending, _ float64) float64 {
			delta := float64(p.loc.Cyl - d.armCyl)
			if delta < 0 {
				delta += span
			}
			return delta
		}
	default: // SPTF, branch-and-bound on the seek (see sched.Cost)
		return func(p *refPending, bound float64) float64 {
			seekMs := d.curve.Time(d.armCyl-p.loc.Cyl) * d.seekScale
			if seekMs >= bound {
				return seekMs // its rotation cannot bring it below bound
			}
			return seekMs + d.rot.LatencyTo(p.loc.Angle, d.costStart+seekMs)*d.rotScale
		}
	}
}
