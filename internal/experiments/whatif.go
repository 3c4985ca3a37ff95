package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// A WhatIfQuery is one parameterized capacity-planning question —
// "P99 latency and watts for SA(4) at 1.8× the Financial arrival rate
// with one arm deconfigured" — in the declarative form the serving
// layer compiles into fleet jobs. Every field participates in the
// content-addressed cache key, so two queries that normalize to the
// same value are the same question and may share one answer.
type WhatIfQuery struct {
	// Workload names one of the paper's Table-2 workloads (Financial,
	// Websearch, TPC-C, TPC-H).
	Workload string `json:"workload"`
	// Actuators is the SA(n) design point under test; 1 is the
	// conventional single-arm HC-SD.
	Actuators int `json:"actuators"`
	// RPM overrides the spindle speed (0 = the stock model's RPM).
	RPM float64 `json:"rpm,omitempty"`
	// ArrivalScale multiplies the workload's arrival rate: 2 doubles
	// the load (halves the mean inter-arrival time). 0 means 1.
	ArrivalScale float64 `json:"arrival_scale,omitempty"`
	// Requests is the replay length per replicate (0 = the default
	// experiment scale).
	Requests int `json:"requests,omitempty"`
	// Seed is the base seed; replicate r runs with
	// fleet.DeriveSeed(Seed, r).
	Seed int64 `json:"seed"`
	// Reps is the replicate count (0 = 1).
	Reps int `json:"reps,omitempty"`
	// ArmFaults deconfigures actuators mid-run: each entry fails Arm at
	// AtFrac of the nominal replay duration (mean inter-arrival ×
	// requests), so fault timing scales with Requests.
	ArmFaults []WhatIfArmFault `json:"arm_faults,omitempty"`
}

// WhatIfArmFault is one scheduled actuator deconfiguration.
type WhatIfArmFault struct {
	// AtFrac places the fault at this fraction of the nominal replay
	// duration, in [0, 1].
	AtFrac float64 `json:"at_frac"`
	// Arm is the actuator index to deconfigure.
	Arm int `json:"arm"`
}

// whatIfMaxActuators bounds the design space a query may ask about; it
// matches the largest SA(n) the paper evaluates (Figure 5 stops at 4,
// the ablations go to 8).
const whatIfMaxActuators = 8

// whatIfRPMs are the spindle speeds a query may select, the paper's
// Figure 6 grid plus the stock 7200 (0 keeps the model default).
var whatIfRPMs = map[float64]bool{7200: true, 6200: true, 5200: true, 4200: true}

// Normalize fills the query's defaulted fields with their effective
// values. Serving normalizes before hashing, so "reps omitted" and
// "reps: 1" are the same cache entry.
func (q WhatIfQuery) Normalize() WhatIfQuery {
	if q.Actuators == 0 {
		q.Actuators = 1
	}
	if q.ArrivalScale == 0 {
		q.ArrivalScale = 1
	}
	if q.Requests == 0 {
		q.Requests = DefaultConfig().Requests
	}
	if q.Reps == 0 {
		q.Reps = 1
	}
	if len(q.ArmFaults) == 0 {
		q.ArmFaults = nil
	}
	return q
}

// Validate reports the first problem with the (normalized) query.
func (q WhatIfQuery) Validate() error {
	q = q.Normalize()
	if _, err := trace.WorkloadByName(q.Workload); err != nil {
		return fmt.Errorf("what-if: %w", err)
	}
	switch {
	case q.Actuators < 1 || q.Actuators > whatIfMaxActuators:
		return fmt.Errorf("what-if: actuators %d outside [1,%d]", q.Actuators, whatIfMaxActuators)
	case q.RPM != 0 && !whatIfRPMs[q.RPM]:
		return fmt.Errorf("what-if: rpm %g not in the evaluated grid (7200, 6200, 5200, 4200)", q.RPM)
	case q.ArrivalScale < 0.1 || q.ArrivalScale > 16:
		return fmt.Errorf("what-if: arrival_scale %g outside [0.1,16]", q.ArrivalScale)
	case q.Requests < 1 || q.Requests > 8_000_000:
		return fmt.Errorf("what-if: requests %d outside [1,8000000]", q.Requests)
	case q.Reps < 1 || q.Reps > 64:
		return fmt.Errorf("what-if: reps %d outside [1,64]", q.Reps)
	}
	for i, af := range q.ArmFaults {
		switch {
		case af.AtFrac < 0 || af.AtFrac > 1:
			return fmt.Errorf("what-if: arm_faults[%d].at_frac %g outside [0,1]", i, af.AtFrac)
		case af.Arm < 0 || af.Arm >= q.Actuators:
			return fmt.Errorf("what-if: arm_faults[%d].arm %d outside [0,%d)", i, af.Arm, q.Actuators)
		}
	}
	return nil
}

// Label renders the query's design point the way the paper names it.
func (q WhatIfQuery) Label() string {
	q = q.Normalize()
	l := fmt.Sprintf("%s/SA(%d)", q.Workload, q.Actuators)
	if q.RPM != 0 {
		l += fmt.Sprintf("/%d", int(q.RPM))
	}
	if q.ArrivalScale != 1 {
		l += fmt.Sprintf("/x%g", q.ArrivalScale)
	}
	if len(q.ArmFaults) > 0 {
		l += fmt.Sprintf("/faults%d", len(q.ArmFaults))
	}
	return l
}

// spec resolves the query's workload with its arrival scaling and
// request count applied.
func (q WhatIfQuery) spec() (trace.WorkloadSpec, error) {
	spec, err := trace.WorkloadByName(q.Workload)
	if err != nil {
		return trace.WorkloadSpec{}, err
	}
	spec = spec.WithRequests(q.Requests)
	spec.MeanInterArrivalMs /= q.ArrivalScale
	return spec, nil
}

// WhatIfRun is one replicate's answer: the usual run measurement plus
// the drive's end-of-run actuator state and the fault-plan accounting.
type WhatIfRun struct {
	Run

	// HealthyArms/TotalArms report the actuator state after the replay.
	HealthyArms, TotalArms int
	// FaultsInjected/FaultsRefused count the fault plan's applied and
	// firmware-refused events (a deconfiguration of the last healthy arm
	// is refused, not an error).
	FaultsInjected, FaultsRefused uint64
}

// whatIfCancelBatch is how many arrivals a what-if replay schedules
// between context checks: a canceled job stops scheduling new arrivals
// within one such batch and returns once the in-flight tail drains.
const whatIfCancelBatch = 256

// RunWhatIf executes one replicate of the query at the given seed. The
// result is a pure function of (query, seed); ctx only aborts — a
// canceled run returns ctx's error within one arrival batch and never
// yields a partial result.
func RunWhatIf(ctx context.Context, q WhatIfQuery, seed int64, ob Observe) (*WhatIfRun, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	spec, err := q.spec()
	if err != nil {
		return nil, err
	}

	model := disk.BarracudaES()
	if q.RPM != 0 && q.RPM != model.RPM {
		model = model.WithRPM(q.RPM)
	}
	eng := simkit.New()
	rot := &stats.Sample{}
	sink := ob.sink()
	d, err := core.New(eng, model, core.Config{
		Actuators: q.Actuators,
		OnService: func(s, r, x float64) { rot.Add(r) },
		Obs:       sinkOptions(sink, q.Label()),
	})
	if err != nil {
		return nil, err
	}

	var inj *fault.Injector
	if len(q.ArmFaults) > 0 {
		// The fault timeline is expressed in fractions of the nominal
		// duration so it scales with Requests, like the degradation study.
		nominal := spec.MeanInterArrivalMs * float64(q.Requests)
		fs := fault.Spec{}
		for _, af := range q.ArmFaults {
			fs.ArmFaults = append(fs.ArmFaults, fault.ArmFault{AtMs: af.AtFrac * nominal, Arm: af.Arm})
		}
		plan, err := fault.Compile(fs, seed)
		if err != nil {
			return nil, err
		}
		inj, err = fault.NewInjector(eng, plan, fault.Targets{Arms: d},
			sinkOptions(sink, q.Label()+"/fault"))
		if err != nil {
			return nil, err
		}
		inj.Schedule()
	}

	offsets, err := HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	resp, err := replayStreamCtx(ctx, eng, d, trace.RemapStream(g, offsets), whatIfCancelBatch)
	if err != nil {
		return nil, err
	}

	r := &WhatIfRun{
		Run: Run{
			Label:     q.Label(),
			Resp:      resp,
			RotLat:    rot,
			Power:     d.Power(eng.Now()),
			ElapsedMs: eng.Now(),
			Completed: uint64(resp.Count()),
			Events:    ob.events(sink),
			Snap:      ob.snap(d),
		},
		HealthyArms: d.HealthyArms(),
		TotalArms:   q.Actuators,
	}
	if inj != nil {
		r.FaultsInjected = inj.Injected()
		r.FaultsRefused = inj.Refused()
		if r.Snap != nil {
			child := inj.Snapshot()
			r.Snap.Children = append(r.Snap.Children, child)
		}
	}
	return r, nil
}

// WhatIfJobs compiles the query into its replicate fleet jobs. Run them
// with fleet.Options{BaseSeed: q.Seed} so replicate r draws seed
// fleet.DeriveSeed(q.Seed, r) — the per-replicate randomness depends
// only on (query seed, replicate index), never on scheduling, which is
// what lets a serving layer cache the merged answer under the query
// alone.
func WhatIfJobs(q WhatIfQuery, ob Observe) []fleet.Job[*WhatIfRun] {
	q = q.Normalize()
	jobs := make([]fleet.Job[*WhatIfRun], q.Reps)
	for i := range jobs {
		jobs[i] = fleet.Job[*WhatIfRun]{
			Name: fmt.Sprintf("%s/rep%d", q.Label(), i),
			Run: func(ctx context.Context, seed int64) (*WhatIfRun, error) {
				return RunWhatIf(ctx, q, seed, ob)
			},
		}
	}
	return jobs
}

// replayStreamCtx is ReplayStream with a cancellation hook: every
// batch arrivals it polls ctx and, when canceled, stops chaining new
// arrivals so the engine drains only the in-flight tail. The successful
// path schedules exactly the events ReplayStream would — the check can
// only abort a run, never perturb it.
func replayStreamCtx(ctx context.Context, eng simkit.Runner, dev device.Device, s trace.Stream, batch int) (*stats.Sample, error) {
	resp := &stats.Sample{}
	cur, ok := s.Next()
	if !ok {
		eng.Run()
		return resp, trace.Err(s)
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
		arrival := r.ArrivalMs
		dev.Submit(r, func(at float64) { resp.Add(at - arrival) })
	}
	eng.At(cur.ArrivalMs, fire)
	eng.Run()
	if cancelErr != nil {
		return nil, cancelErr
	}
	if err := trace.Err(s); err != nil {
		return nil, err
	}
	return resp, nil
}
