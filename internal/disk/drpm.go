package disk

import (
	"fmt"
	"math"

	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkit"
)

// DRPMConfig tunes a dynamic-RPM drive, the power-management approach
// the paper positions itself against (§5, citing Gurumurthi et al.'s
// DRPM): instead of adding parallel hardware, the drive steps its
// spindle down a level after an idle period, pays longer rotations at
// the lower speeds, and steps back to full speed when the queue grows.
type DRPMConfig struct {
	// Levels lists the supported spindle speeds, fastest first. Empty
	// means the classic DRPM ladder {model RPM, -1000, -2000, -3000}.
	Levels []float64
	// IdleThresholdMs is how long the drive must sit idle before
	// stepping down one level (default 500 ms).
	IdleThresholdMs float64
	// UpQueueLen steps the spindle back to full speed once this many
	// requests are waiting (default 2).
	UpQueueLen int
	// TransitionMsPerLevel is the time to move one level in either
	// direction (default 400 ms, in the range the DRPM work assumes).
	TransitionMsPerLevel float64
}

func (c *DRPMConfig) fill(modelRPM float64) {
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

// maxDRPMDelayMs bounds the policy's delays far past any real drive
// (1e12 ms is 32 years), so every clock reading of a run stays finite.
// Each level obeys the model's spindle-speed bound, maxRPM.
const maxDRPMDelayMs = 1e12

// validate reports the first problem with the filled config, naming the
// field. Each test fails on NaN, which would otherwise run silently at
// NaN times.
func (c DRPMConfig) validate() error {
	for i, l := range c.Levels {
		if !(l >= 1 && l <= maxRPM) || i > 0 && l >= c.Levels[i-1] {
			return fmt.Errorf("disk: DRPM.Levels[%d] %v must be in [1, %g] RPM and below the level before", i, l, maxRPM)
		}
	}
	if v := c.IdleThresholdMs; !(v >= 0 && v <= maxDRPMDelayMs) {
		return fmt.Errorf("disk: DRPM.IdleThresholdMs %v must be in [0, %g]", v, maxDRPMDelayMs)
	}
	if v := c.TransitionMsPerLevel; !(v >= 0 && v <= maxDRPMDelayMs) {
		return fmt.Errorf("disk: DRPM.TransitionMsPerLevel %v must be in [0, %g]", v, maxDRPMDelayMs)
	}
	if c.UpQueueLen < 1 {
		return fmt.Errorf("disk: DRPM.UpQueueLen %d must be positive", c.UpQueueLen)
	}
	return nil
}

// spindle is a drive's DRPM policy. It keeps a rotation and a power
// model per level and swaps the drive's rotation when a transition
// ends, so positioning and transfer always run at the current speed.
// No service starts while a transition runs (see dispatchOne).
type spindle struct {
	d             *Drive
	cfg           DRPMConfig
	rots          []*mech.Rotation // one per level
	pms           []*power.Model   // one per level
	level         int              // current index into cfg.Levels
	transitioning bool
	log           []transition // every level change so far

	// The idle step-down timer. Every armIdle schedules one idleEvent,
	// and all of them share the one IdleThresholdMs delay, so they fire
	// in the order they were armed: a firing timer is the latest one
	// exactly when it is the last outstanding (idlePending reaches 0).
	// A media request arriving after that arm keeps the drive busy or
	// queued until its completion arms a newer timer, so the latest
	// timer alone decides.
	idlePending int
	idleEvent   simkit.Event
	endEvent    simkit.Event // ends the running transition
}

// transition is one level change: the spindle leaves its old level at
// start and runs at level to from end.
type transition struct {
	start, end float64
	to         int
}

// NewDRPM attaches a one-arm drive built from model whose spindle follows
// the DRPM policy cfg, starting at Levels[0]. Power is accounted against
// the Levels[0] power model, with idle energy integrated per level.
func NewDRPM(eng simkit.Scheduler, model Model, cfg DRPMConfig) (*Drive, error) {
	d, err := New(eng, model, Options{})
	if err != nil {
		return nil, err
	}
	cfg.fill(model.RPM)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &spindle{d: d, cfg: cfg}
	for _, rpm := range cfg.Levels {
		rot, err := mech.NewRotation(rpm)
		if err != nil {
			return nil, err
		}
		pm, err := power.NewModel(model.PowerCoeff, model.WithRPM(rpm).PowerSpec(1))
		if err != nil {
			return nil, err
		}
		s.rots, s.pms = append(s.rots, rot), append(s.pms, pm)
	}
	d.rot, d.pm, d.acct = s.rots[0], s.pms[0], power.NewAccountant(s.pms[0])
	s.idleEvent, s.endEvent = s.idleTimer, s.endTransition
	d.spin = s
	s.armIdle()
	return d, nil
}

// LevelRPM reports the current spindle speed.
func (d *Drive) LevelRPM() float64 { return d.rot.RPM() }

// Level reports the current spindle-speed level: 0, the fastest, at
// fixed speed.
func (d *Drive) Level() int {
	if d.spin == nil {
		return 0
	}
	return d.spin.level
}

// Transitions reports how many level changes have started.
func (d *Drive) Transitions() uint64 {
	if d.spin == nil {
		return 0
	}
	return uint64(len(d.spin.log))
}

// LevelResidency returns the wall time spent at each level so far (nil
// at fixed speed).
func (d *Drive) LevelResidency() []float64 {
	if d.spin == nil {
		return nil
	}
	return d.spin.residency(d.eng.Now())
}

// residency returns the time spent at each level by t. A transition's
// time counts to the level it leaves.
func (s *spindle) residency(t float64) []float64 {
	out := make([]float64, len(s.cfg.Levels))
	level, since := 0, 0.0
	for _, tr := range s.log {
		if tr.end > t {
			break
		}
		out[level] += tr.end - since
		level, since = tr.to, tr.end
	}
	out[level] += t - since
	return out
}

// power is the drive's average power over [0, t]: the accountant's
// service energy and the transition energy accrued by t, and an idle
// term integrated per level — that is DRPM's whole point.
func (s *spindle) power(t float64) power.Breakdown {
	acct := *s.d.acct
	var unrun float64 // transition time charged at its start but not run by t
	for i := len(s.log) - 1; i >= 0 && s.log[i].end > t; i-- {
		unrun += s.log[i].end - max(s.log[i].start, t)
	}
	if unrun > 0 {
		acct.AddSeekIncrement(-unrun)
	}
	b := acct.Breakdown(t)
	if t <= 0 {
		return b
	}
	var idleEnergy float64
	for i, ms := range s.residency(t) {
		idleEnergy += ms * s.pms[i].IdlePower()
	}
	// Busy time already carries its own base power in the accountant's
	// buckets; subtract its share of the level-weighted idle to avoid
	// double-charging (approximation: busy time runs at full speed).
	idleEnergy -= acct.BusyMs() * s.pms[0].IdlePower()
	if idleEnergy < 0 {
		idleEnergy = 0
	}
	b.Watts[power.Idle] = idleEnergy / t
	return b
}

// snapshot adds the level counters and gauges to the drive's snapshot.
func (s *spindle) snapshot(snap *obs.Snapshot) {
	snap.Kind = "drpm-drive"
	snap.Counters["transitions"] = uint64(len(s.log))
	snap.Gauges["level"] = obs.GaugeValue{Value: float64(s.level), Max: float64(len(s.cfg.Levels) - 1)}
	snap.Gauges["level_rpm"] = obs.GaugeValue{Value: s.cfg.Levels[s.level], Max: s.cfg.Levels[0]}
	for i, ms := range s.residency(s.d.eng.Now()) {
		snap.Gauges[fmt.Sprintf("level%d_ms", i)] = obs.GaugeValue{Value: ms, Max: ms}
	}
}

// submitted spins the spindle back up to full speed when a media
// request arrives under queue pressure.
func (s *spindle) submitted() {
	if s.d.queue.Len() >= s.cfg.UpQueueLen && s.level != 0 && !s.transitioning {
		s.stepTo(0)
	}
}

// armIdle starts (or restarts) the idle step-down timer, superseding
// any timer already outstanding.
func (s *spindle) armIdle() {
	s.idlePending++
	s.d.eng.After(s.cfg.IdleThresholdMs, s.idleEvent)
}

// idleTimer fires an idle step-down timer: only the most recently armed
// one acts.
func (s *spindle) idleTimer() {
	s.idlePending--
	if s.idlePending == 0 && !s.d.Busy() && !s.transitioning &&
		s.d.queue.Len() == 0 && s.level < len(s.cfg.Levels)-1 {
		s.stepTo(s.level + 1)
	}
}

// stepTo starts a transition to the target level, taking
// TransitionMsPerLevel per level crossed. Its motor work is charged up
// front, through the accountant's seek increment, as VCM power for the
// transition's duration.
func (s *spindle) stepTo(target int) {
	dur := math.Abs(float64(target-s.level)) * s.cfg.TransitionMsPerLevel
	now := s.d.eng.Now()
	s.transitioning = true
	s.log = append(s.log, transition{start: now, end: now + dur, to: target})
	s.d.acct.AddSeekIncrement(dur)
	s.d.eng.After(dur, s.endEvent)
}

// endTransition lands the spindle on its new level and resumes
// dispatch at the new speed.
func (s *spindle) endTransition() {
	s.level, s.transitioning = s.log[len(s.log)-1].to, false
	s.d.rot = s.rots[s.level]
	s.d.trySchedule()
	if s.d.queue.Len() == 0 {
		s.armIdle()
	}
}
