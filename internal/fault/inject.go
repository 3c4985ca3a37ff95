package fault

import (
	"fmt"

	"repro/internal/defect"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/smart"
)

// ArmFailer is the actuator-deconfiguration surface a plan's arm
// failures target; core.ParallelDrive satisfies it.
type ArmFailer interface {
	FailArm(i int) error
}

// Rebuilder is the member-failure surface a plan's deaths target;
// raid.Array satisfies it.
type Rebuilder interface {
	FailMember(i int) error
	Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error
}

// Targets binds each fault class to the simulated component it acts on.
// A target may be nil when the plan carries no events of its class.
type Targets struct {
	// Defects receives sector errors as Grow calls. The table must
	// belong to a drive scheduled on the injector's own engine: a
	// sector error is applied there, so it must never reach into a
	// member LP of a partitioned engine.
	Defects *defect.Table
	// Monitors receive drift onsets, indexed by Event.Component.
	Monitors []*smart.Monitor
	// Arms receives arm failures.
	Arms ArmFailer
	// Array receives member deaths and rebuild starts. raid.Array
	// satisfies Rebuilder with either coupling; for an array built by
	// raid.NewPartitioned the injector's engine must be the controller
	// LP (eng.LP(0) or eng.Runner(0)), which is where fail and rebuild
	// calls are legal.
	Array Rebuilder
}

// Injector arms a compiled plan on a simulation engine and applies each
// event to its target at the planned timestamp. Every injection and
// every reaction is recorded on the obs surface: a PhaseFault/PhaseReact
// span per event (when a sink is configured) and a counter per class on
// the snapshot.
type Injector struct {
	eng     simkit.Scheduler
	plan    Plan
	targets Targets
	em      *obs.Emitter
	name    string
	reg     *obs.Registry

	cSectorErrors *obs.Counter
	cDriftOnsets  *obs.Counter
	cArmFailures  *obs.Counter
	cDeaths       *obs.Counter
	cRebuilds     *obs.Counter
	cRebuildsDone *obs.Counter
	cReactions    *obs.Counter
	cRefused      *obs.Counter
	gRebuildDone  *obs.Gauge

	copied        int64
	rebuildDoneMs float64
}

// NewInjector validates that every plan event has its target bound and
// builds the injector. Call Schedule to arm the events; construction
// alone injects nothing.
func NewInjector(eng simkit.Scheduler, plan Plan, targets Targets, ob obs.Options) (*Injector, error) {
	if eng == nil {
		return nil, fmt.Errorf("fault: injector needs an engine")
	}
	for i, ev := range plan.Events {
		switch ev.Kind {
		case KindSectorError:
			if targets.Defects == nil {
				return nil, fmt.Errorf("fault: event %d (%s) has no defect table", i, ev.Kind)
			}
		case KindDriftOnset:
			if ev.Component >= len(targets.Monitors) || targets.Monitors[ev.Component] == nil {
				return nil, fmt.Errorf("fault: event %d (%s) has no monitor %d", i, ev.Kind, ev.Component)
			}
		case KindArmFailure:
			if targets.Arms == nil {
				return nil, fmt.Errorf("fault: event %d (%s) has no arm target", i, ev.Kind)
			}
		case KindMemberDeath, KindRebuildStart:
			if targets.Array == nil {
				return nil, fmt.Errorf("fault: event %d (%s) has no array target", i, ev.Kind)
			}
		default:
			return nil, fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	// Preflight member deaths against the array when it can be asked: a
	// plan aimed at a member the array cannot fail (an out-of-range
	// index, a redundancy-free layout) is a binding error better
	// reported at construction than as runtime refusal counts. Runtime
	// refusals remain for genuinely dynamic cases (a second death under
	// the single-failure model).
	if pf, ok := targets.Array.(interface{ CanFailMember(int) error }); ok {
		for i, ev := range plan.Events {
			if ev.Kind != KindMemberDeath {
				continue
			}
			if err := pf.CanFailMember(ev.Component); err != nil {
				return nil, fmt.Errorf("fault: event %d (%s) rejected by Targets.Array: %w", i, ev.Kind, err)
			}
		}
	}
	name := ob.Label("fault")
	inj := &Injector{
		eng:     eng,
		plan:    plan,
		targets: targets,
		em:      obs.NewEmitter(eng, ob.Sink, name),
		name:    name,
		reg:     obs.NewRegistry(),
	}
	inj.cSectorErrors = inj.reg.Counter("sector_errors")
	inj.cDriftOnsets = inj.reg.Counter("drift_onsets")
	inj.cArmFailures = inj.reg.Counter("arm_failures")
	inj.cDeaths = inj.reg.Counter("member_deaths")
	inj.cRebuilds = inj.reg.Counter("rebuilds_started")
	inj.cRebuildsDone = inj.reg.Counter("rebuilds_completed")
	inj.cReactions = inj.reg.Counter("reactions")
	inj.cRefused = inj.reg.Counter("refused")
	inj.gRebuildDone = inj.reg.Gauge("rebuild_done_ms")
	return inj, nil
}

// Schedule arms every plan event on the engine. Events in the simulated
// past are a configuration error and panic via simkit's At contract, so
// call Schedule before running the engine.
func (inj *Injector) Schedule() {
	for _, ev := range inj.plan.Events {
		ev := ev
		inj.eng.At(ev.AtMs, func() { inj.apply(ev) })
	}
}

// apply performs one fault event against its target. A target that
// refuses the fault (a duplicate or exhausted-spare media error, a
// deconfiguration of the last healthy arm) counts as refused and the
// simulation proceeds: refusals are part of the modeled firmware
// behavior, not plan errors.
func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case KindSectorError:
		if err := inj.targets.Defects.Grow(ev.LBA); err != nil {
			inj.cRefused.Inc()
			return
		}
		inj.cSectorErrors.Inc()
		inj.em.Fault(obs.PhaseFault, -1, ev.LBA, 1)
	case KindDriftOnset:
		if err := inj.targets.Monitors[ev.Component].BeginDegrading(ev.Attr, ev.Rate); err != nil {
			inj.cRefused.Inc()
			return
		}
		inj.cDriftOnsets.Inc()
		inj.em.Fault(obs.PhaseFault, ev.Component, 0, 0)
	case KindArmFailure:
		if err := inj.targets.Arms.FailArm(ev.Component); err != nil {
			inj.cRefused.Inc()
			return
		}
		inj.cArmFailures.Inc()
		inj.em.Fault(obs.PhaseFault, ev.Component, 0, 0)
	case KindMemberDeath:
		if err := inj.targets.Array.FailMember(ev.Component); err != nil {
			inj.cRefused.Inc()
			return
		}
		inj.cDeaths.Inc()
		inj.em.Fault(obs.PhaseFault, ev.Component, 0, 0)
	case KindRebuildStart:
		err := inj.targets.Array.Rebuild(ev.Component, ev.ChunkSectors, ev.Depth,
			func(copied int64) {
				inj.copied += copied
				inj.rebuildDoneMs = inj.eng.Now()
				inj.cRebuildsDone.Inc()
				inj.gRebuildDone.Set(inj.rebuildDoneMs)
				inj.em.Fault(obs.PhaseReact, ev.Component, 0, int(copied))
			})
		if err != nil {
			inj.cRefused.Inc()
			return
		}
		inj.cRebuilds.Inc()
		inj.em.Fault(obs.PhaseFault, ev.Component, 0, 0)
	}
}

// React records a degradation reaction taken outside the plan — e.g. a
// SMART sentry deconfiguring the arm its monitor indicted — so the
// trace carries the reaction next to the drift that caused it and the
// snapshot counts it.
func (inj *Injector) React(component int) {
	inj.cReactions.Inc()
	inj.em.Fault(obs.PhaseReact, component, 0, 0)
}

// Injected reports how many plan events were applied successfully.
func (inj *Injector) Injected() uint64 {
	return inj.cSectorErrors.Value() + inj.cDriftOnsets.Value() +
		inj.cArmFailures.Value() + inj.cDeaths.Value() + inj.cRebuilds.Value()
}

// Refused reports how many plan events the target rejected.
func (inj *Injector) Refused() uint64 { return inj.cRefused.Value() }

// CopiedSectors reports the total sectors restored by completed
// rebuilds.
func (inj *Injector) CopiedSectors() int64 { return inj.copied }

// RebuildDoneMs reports when the last rebuild completed (0 when none
// has).
func (inj *Injector) RebuildDoneMs() float64 { return inj.rebuildDoneMs }

// Snapshot reports injection statistics on the uniform obs surface,
// with the defect table (when bound) as a child.
func (inj *Injector) Snapshot() obs.Snapshot {
	s := obs.Snapshot{Device: inj.name, Kind: "fault-injector"}
	inj.reg.Fill(&s)
	if inj.targets.Defects != nil {
		s.Children = append(s.Children, inj.targets.Defects.Snapshot())
	}
	return s
}
