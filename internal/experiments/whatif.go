package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/power"
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

// Validate reports the first problem with the (normalized) query that
// the model cannot run. The spindle speed is the drive model's to check
// (disk.Model.Validate); serving adds its own, tighter limits on top.
func (q WhatIfQuery) Validate() error {
	q = q.Normalize()
	if _, err := trace.WorkloadByName(q.Workload); err != nil {
		return fmt.Errorf("what-if: %w", err)
	}
	switch {
	case q.Actuators < 1:
		return fmt.Errorf("what-if: actuators %d must be >= 1", q.Actuators)
	case !(q.ArrivalScale > 0) || math.IsInf(q.ArrivalScale, 1):
		return fmt.Errorf("what-if: arrival_scale %g must be positive and finite", q.ArrivalScale)
	case q.Requests < 1:
		return fmt.Errorf("what-if: requests %d must be >= 1", q.Requests)
	case q.Reps < 1:
		return fmt.Errorf("what-if: reps %d must be >= 1", q.Reps)
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

	offsets, err := HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	label := q.Label()
	var (
		drive *disk.Drive
		inj   *fault.Injector
	)
	arm := func(eng simkit.Scheduler, d *disk.Drive, sink *obs.MemorySink) error {
		drive = d
		if len(q.ArmFaults) == 0 {
			return nil
		}
		// The fault timeline is expressed in fractions of the nominal
		// duration so it scales with Requests, like the degradation study.
		nominal := spec.MeanInterArrivalMs * float64(q.Requests)
		fs := fault.Spec{}
		for _, af := range q.ArmFaults {
			fs.ArmFaults = append(fs.ArmFaults, fault.ArmFault{AtMs: af.AtFrac * nominal, Arm: af.Arm})
		}
		plan, err := fault.Compile(fs, seed)
		if err != nil {
			return err
		}
		inj, err = fault.NewInjector(eng, plan, fault.Targets{Arms: d}, sinkOptions(sink, label+"/fault"))
		if err != nil {
			return err
		}
		inj.Schedule()
		return nil
	}
	run, err := runDrive(ctx, saModel(q.RPM), disk.Options{Actuators: q.Actuators, Obs: obs.Options{Name: label}},
		label, trace.RemapStream(g, offsets), ob, arm)
	if err != nil {
		return nil, err
	}

	r := &WhatIfRun{Run: *run, HealthyArms: drive.HealthyArms(), TotalArms: q.Actuators}
	if inj != nil {
		r.FaultsInjected = inj.Injected()
		r.FaultsRefused = inj.Refused()
		if r.Snap != nil {
			r.Snap.Children = append(r.Snap.Children, inj.Snapshot())
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

// WhatIfPool is a query's replicate runs pooled into one answer.
type WhatIfPool struct {
	// Merged holds every replicate's response times, in replicate order.
	Merged *stats.Sample
	// Means holds one mean per replicate; its CI95 brackets Merged's
	// mean with the spread of independent draws.
	Means *stats.Sample
	// Power is the mean power per mode (Power.Watts) over the mean
	// simulated duration of one replicate (Power.Elapsed). TotalW is the
	// mean of the replicates' totals, which can differ from
	// Power.Total() in the last bits.
	Power  power.Breakdown
	TotalW float64
}

// PoolWhatIf pools replicate runs, in the order given (replicate order,
// as fleet returns them — independent of scheduling).
func PoolWhatIf(runs []*WhatIfRun) (*WhatIfPool, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("what-if: no replicate runs to pool")
	}
	p := &WhatIfPool{Merged: &stats.Sample{}, Means: &stats.Sample{}}
	for _, r := range runs {
		p.Merged.Merge(r.Resp)
		p.Means.Add(r.Resp.Mean())
		p.TotalW += r.Power.Total()
		for m, w := range r.Power.Watts {
			p.Power.Watts[m] += w
		}
		p.Power.Elapsed += r.ElapsedMs
	}
	n := float64(len(runs))
	p.TotalW /= n
	for m := range p.Power.Watts {
		p.Power.Watts[m] /= n
	}
	p.Power.Elapsed /= n
	return p, nil
}
