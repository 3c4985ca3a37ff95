// Package drpm implements a Dynamic-RPM disk drive — the competing
// disk power-management approach the paper positions itself against
// (§5, citing Gurumurthi et al.'s DRPM and the commercial multi-RPM
// drives): instead of adding parallel hardware, the drive modulates its
// spindle speed, dropping to lower RPM levels when idle and paying
// longer rotational latencies (or a spin-up transition) when load
// returns.
//
// The model services requests at the spindle's current level, steps the
// spindle down one level after a configurable idle period, and steps it
// back up when the queue grows. RPM transitions take time proportional
// to the level distance and draw full spindle power. The experiments
// package uses this drive as the alternative-power-knob baseline when
// evaluating intra-disk parallelism.
package drpm

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

// Config tunes the DRPM policy.
type Config struct {
	// Levels lists the supported spindle speeds, fastest first. Empty
	// means the classic DRPM ladder {model RPM, -1000, -2000, -3000}.
	Levels []float64
	// IdleThresholdMs is how long the drive must sit idle before
	// stepping down one level (default 500 ms).
	IdleThresholdMs float64
	// UpQueueLen steps the spindle back toward full speed once this many
	// requests are waiting (default 2).
	UpQueueLen int
	// TransitionMsPerLevel is the time to move one level in either
	// direction (default 400 ms, in the range the DRPM work assumes).
	TransitionMsPerLevel float64
}

func (c *Config) fill(modelRPM float64) {
	if len(c.Levels) == 0 {
		c.Levels = []float64{modelRPM, modelRPM - 1000, modelRPM - 2000, modelRPM - 3000}
	}
	if c.IdleThresholdMs == 0 {
		c.IdleThresholdMs = 500
	}
	if c.UpQueueLen == 0 {
		c.UpQueueLen = 2
	}
	if c.TransitionMsPerLevel == 0 {
		c.TransitionMsPerLevel = 400
	}
}

// Validate reports the first problem with the (filled) config, if any.
func (c Config) validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("drpm: no RPM levels")
	}
	for i, l := range c.Levels {
		if l <= 0 {
			return fmt.Errorf("drpm: level %d RPM %v must be positive", i, l)
		}
		if i > 0 && l >= c.Levels[i-1] {
			return fmt.Errorf("drpm: levels must be strictly decreasing")
		}
	}
	if c.IdleThresholdMs < 0 || c.TransitionMsPerLevel < 0 {
		return fmt.Errorf("drpm: negative timing parameters")
	}
	if c.UpQueueLen < 1 {
		return fmt.Errorf("drpm: UpQueueLen %d must be positive", c.UpQueueLen)
	}
	return nil
}

type pending struct {
	req  trace.Request
	done device.Done
	loc  geom.Loc
}

// Drive is a single-actuator drive with a dynamically modulated spindle.
type Drive struct {
	model disk.Model
	cfg   Config
	eng   simkit.Scheduler
	geo   *geom.Geometry
	curve *mech.SeekCurve
	rots  []*mech.Rotation // one per level
	pms   []*power.Model   // one per level
	buf   *cache.Cache
	queue *sched.Queue[pending]
	acct  *power.Accountant // accounted against the FULL-speed model

	level         int // current index into cfg.Levels
	transitioning bool
	busy          bool
	armCyl        int

	// The idle step-down timer. Every armIdle schedules one idleEvent,
	// and all of them share the one IdleThresholdMs delay, so they fire
	// in the order they were armed: a firing timer is the latest one
	// exactly when it is the last outstanding (idlePending reaches 0),
	// and idleLive says no request arrived since it was armed.
	idlePending int
	idleLive    bool
	idleEvent   simkit.Event

	// The request on the media while busy, and the completion event
	// that retires it. The events and the SPTF cost function are built
	// once in New (the cost reads costStart and the current level's
	// rotation), so a service allocates nothing.
	inService pending
	complete  simkit.Event
	cost      sched.Cost[pending]
	costStart float64 // now + ControllerOverheadMs, refreshed per dispatch

	submitted   uint64
	completed   uint64
	cacheHits   uint64
	transitions uint64
	levelMs     []float64 // wall time spent at each level
	lastLevelAt float64
}

var _ device.Device = (*Drive)(nil)

// New attaches a DRPM drive built from the base model.
func New(eng simkit.Scheduler, model disk.Model, cfg Config) (*Drive, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	cfg.fill(model.RPM)
	if err := cfg.validate(); err != nil {
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
	buf, err := cache.New(cache.Config{
		SizeBytes:        model.CacheBytes,
		SectorBytes:      model.Geom.SectorBytes,
		Segments:         model.CacheSegments,
		ReadAheadSectors: model.ReadAheadSectors,
	})
	if err != nil {
		return nil, err
	}
	d := &Drive{
		model:   model,
		cfg:     cfg,
		eng:     eng,
		geo:     geo,
		curve:   curve,
		buf:     buf,
		queue:   sched.NewQueue[pending](disk.DefaultSchedConfig()),
		levelMs: make([]float64, len(cfg.Levels)),
	}
	for _, rpm := range cfg.Levels {
		rot, err := mech.NewRotation(rpm)
		if err != nil {
			return nil, err
		}
		pm, err := power.NewModel(model.PowerCoeff, power.DriveSpec{
			Platters:   model.Geom.Platters,
			DiameterIn: model.DiameterIn,
			RPM:        rpm,
			Actuators:  1,
		})
		if err != nil {
			return nil, err
		}
		d.rots = append(d.rots, rot)
		d.pms = append(d.pms, pm)
	}
	// Energy is integrated against the current level's model by hand in
	// noteLevelTime; the accountant tracks busy-mode energy at full speed
	// as an approximation for seek/transfer increments.
	d.acct = power.NewAccountant(d.pms[0])
	d.idleEvent = d.idleTimer
	d.complete = d.finishService
	d.cost = func(p *pending, bound float64) float64 {
		seekMs := d.curve.Time(d.armCyl - p.loc.Cyl)
		if seekMs >= bound {
			return seekMs // its rotation cannot bring it below bound
		}
		return seekMs + d.rots[d.level].LatencyTo(p.loc.Angle, d.costStart+seekMs)
	}
	d.armIdle()
	return d, nil
}

// Level reports the current RPM level index (0 = fastest).
func (d *Drive) Level() int { return d.level }

// LevelRPM reports the current spindle speed.
func (d *Drive) LevelRPM() float64 { return d.cfg.Levels[d.level] }

// Transitions reports how many level changes have occurred.
func (d *Drive) Transitions() uint64 { return d.transitions }

// Capacity reports the drive's size in sectors.
func (d *Drive) Capacity() int64 { return d.geo.TotalSectors() }

// Snapshot reports the drive's counters on the uniform obs surface:
// the current and per-level residency gauges alongside the request
// counters.
func (d *Drive) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:    d.model.Name,
		Kind:      "drpm-drive",
		Submitted: d.submitted,
		Completed: d.completed,
		CacheHits: d.cacheHits,
		Queue:     obs.QueueStats{Len: d.queue.Len()},
		Counters:  map[string]uint64{"transitions": d.transitions},
		Gauges: map[string]obs.GaugeValue{
			"level":     {Value: float64(d.level), Max: float64(len(d.cfg.Levels) - 1)},
			"level_rpm": {Value: d.LevelRPM(), Max: d.cfg.Levels[0]},
		},
		Histograms: map[string]obs.Histogram{},
	}
	for i, ms := range d.LevelResidency() {
		s.Gauges[fmt.Sprintf("level%d_ms", i)] = obs.GaugeValue{Value: ms, Max: ms}
	}
	return s
}

var _ device.Instrumented = (*Drive)(nil)

// LevelResidency returns the wall time spent at each level so far.
func (d *Drive) LevelResidency() []float64 {
	out := append([]float64(nil), d.levelMs...)
	out[d.level] += d.eng.Now() - d.lastLevelAt
	return out
}

// Power reports the average-power breakdown: idle energy is integrated
// per level (that is DRPM's whole point); seek and transfer increments
// are charged on top.
func (d *Drive) Power(elapsedMs float64) power.Breakdown {
	b := d.acct.Breakdown(elapsedMs)
	if elapsedMs <= 0 {
		return b
	}
	// Replace the flat idle term with the level-weighted one.
	var idleEnergy float64
	for i, ms := range d.LevelResidency() {
		idleEnergy += ms * d.pms[i].IdlePower()
	}
	busy := d.acct.BusyMs()
	// Busy time already carries its own base power in the accountant's
	// buckets; subtract its share of the level-weighted idle to avoid
	// double-charging (approximation: busy time runs at full speed).
	idleEnergy -= busy * d.pms[0].IdlePower()
	if idleEnergy < 0 {
		idleEnergy = 0
	}
	b.Watts[power.Idle] = idleEnergy / elapsedMs
	return b
}

// noteLevel records residency when the level changes.
func (d *Drive) noteLevel(newLevel int) {
	now := d.eng.Now()
	d.levelMs[d.level] += now - d.lastLevelAt
	d.lastLevelAt = now
	d.level = newLevel
}

// armIdle starts (or restarts) the idle step-down timer, superseding
// any timer already outstanding.
func (d *Drive) armIdle() {
	d.idlePending++
	d.idleLive = true
	d.eng.After(d.cfg.IdleThresholdMs, d.idleEvent)
}

// idleTimer fires an idle step-down timer: only the most recently armed
// one acts, and only if no request arrived since it was armed.
func (d *Drive) idleTimer() {
	d.idlePending--
	if d.idlePending > 0 || !d.idleLive || d.busy || d.transitioning || d.queue.Len() > 0 {
		return
	}
	if d.level < len(d.cfg.Levels)-1 {
		d.stepTo(d.level + 1)
	}
}

// stepTo transitions the spindle to the target level.
func (d *Drive) stepTo(target int) {
	if target == d.level || d.transitioning {
		return
	}
	steps := target - d.level
	if steps < 0 {
		steps = -steps
	}
	dur := float64(steps) * d.cfg.TransitionMsPerLevel
	d.transitioning = true
	d.transitions++
	// The spindle motor works hard during the transition: charge
	// full-speed idle power for the duration via the seek bucket's
	// increment mechanism (motor-active energy).
	d.acct.AddSeekIncrement(dur)
	d.eng.After(dur, func() {
		d.noteLevel(target)
		d.transitioning = false
		d.trySchedule()
		if d.queue.Len() == 0 {
			d.armIdle()
		}
	})
}

// Submit presents a request at the current simulated time.
func (d *Drive) Submit(r trace.Request, done device.Done) {
	if r.End() > d.geo.TotalSectors() {
		panic(fmt.Sprintf("drpm: request [%d,%d) beyond capacity %d", r.LBA, r.End(), d.geo.TotalSectors()))
	}
	d.submitted++
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.eng.After(d.model.CacheHitMs, func() {
			d.completed++
			if done != nil {
				done(d.eng.Now())
			}
		})
		return
	}
	d.idleLive = false // cancel any pending step-down
	d.queue.Push(pending{req: r, done: done, loc: d.geo.Locate(r.LBA)}, d.eng.Now())
	// Load pressure: spin back up.
	if d.queue.Len() >= d.cfg.UpQueueLen && d.level != 0 && !d.transitioning {
		d.stepTo(0)
	}
	d.trySchedule()
}

func (d *Drive) trySchedule() {
	if d.busy || d.transitioning || d.queue.Len() == 0 {
		return
	}
	now := d.eng.Now()
	d.costStart = now + d.model.ControllerOverheadMs
	p, ok := d.queue.Pop(now, d.cost)
	if !ok {
		return
	}
	rot := d.rots[d.level]
	d.busy = true
	seekMs := d.curve.Time(d.armCyl - p.loc.Cyl)
	atTrack := now + d.model.ControllerOverheadMs + seekMs
	rotMs := rot.LatencyTo(p.loc.Angle, atTrack)
	xferMs := d.model.TransferTime(d.geo, rot, p.req.LBA, p.req.Sectors)
	d.acct.AddSeek(seekMs, 1)
	d.acct.Add(power.RotLatency, rotMs)
	d.acct.Add(power.Transfer, xferMs)
	d.armCyl = p.loc.Cyl
	d.inService = p
	d.eng.At(atTrack+rotMs+xferMs, d.complete)
}

// finishService retires the in-service request at its service end.
func (d *Drive) finishService() {
	p := d.inService
	d.inService = pending{} // release the done callback
	d.busy = false
	d.completed++
	if p.req.Read {
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	} else {
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	if p.done != nil {
		p.done(d.eng.Now())
	}
	if d.queue.Len() > 0 {
		d.trySchedule()
	} else {
		d.armIdle()
	}
}
