package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// whatIfTestQuery is a small but non-trivial query: a faulted SA(2)
// under 1.5× Financial load, replicated twice.
func whatIfTestQuery() WhatIfQuery {
	return WhatIfQuery{
		Workload:     "Financial",
		Actuators:    2,
		ArrivalScale: 1.5,
		Requests:     4000,
		Seed:         7,
		Reps:         2,
		ArmFaults:    []WhatIfArmFault{{AtFrac: 0.3, Arm: 1}},
	}
}

// whatIfFingerprint renders everything a cached answer would serialize,
// so byte-identity of the fingerprint pins byte-identity of the answer.
func whatIfFingerprint(runs []*WhatIfRun) string {
	s := ""
	for _, r := range runs {
		s += fmt.Sprintf("%s %v %d %.9f %.9f %d/%d %d/%d\n",
			r.Label, r.Resp.Summarize(), r.Completed, r.Power.Total(), r.ElapsedMs,
			r.HealthyArms, r.TotalArms, r.FaultsInjected, r.FaultsRefused)
	}
	return s
}

func runWhatIfJobs(t *testing.T, q WhatIfQuery, parallelism int) []*WhatIfRun {
	t.Helper()
	runs, err := fleet.Run(WhatIfJobs(q, Observe{}), fleet.Options{
		Parallelism: parallelism,
		BaseSeed:    q.Seed,
	})
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return runs
}

// TestWhatIfDeterministic pins the serving layer's soundness argument:
// the same query yields a byte-identical answer on repeated runs and at
// any parallelism.
func TestWhatIfDeterministic(t *testing.T) {
	q := whatIfTestQuery()
	a := whatIfFingerprint(runWhatIfJobs(t, q, 1))
	b := whatIfFingerprint(runWhatIfJobs(t, q, 1))
	c := whatIfFingerprint(runWhatIfJobs(t, q, 4))
	if a != b {
		t.Errorf("repeated runs differ:\n%s\nvs\n%s", a, b)
	}
	if a != c {
		t.Errorf("parallelism 1 vs 4 differ:\n%s\nvs\n%s", a, c)
	}
	if a == "" {
		t.Fatal("empty fingerprint")
	}
}

// TestWhatIfArmFaultApplied checks the fault actually lands: the drive
// ends the run with one deconfigured actuator.
func TestWhatIfArmFaultApplied(t *testing.T) {
	r, err := RunWhatIf(context.Background(), whatIfTestQuery(), 7, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalArms != 2 || r.HealthyArms != 1 {
		t.Errorf("arms = %d/%d, want 1/2", r.HealthyArms, r.TotalArms)
	}
	if r.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", r.FaultsInjected)
	}
	if r.Completed != 4000 {
		t.Errorf("Completed = %d, want 4000", r.Completed)
	}
}

// TestWhatIfValidate covers the rejection paths of a query the model
// cannot run. The serving limits (RPM grid, at most 8 actuators, ...)
// are serve.Query's; the model accepts what lies past them.
func TestWhatIfValidate(t *testing.T) {
	bad := []WhatIfQuery{
		{Workload: "nope"},
		{Workload: "Financial", Actuators: -1},
		{Workload: "Financial", ArrivalScale: -1},
		{Workload: "Financial", ArrivalScale: math.Inf(1)},
		{Workload: "Financial", ArrivalScale: math.NaN()},
		{Workload: "Financial", Requests: -1},
		{Workload: "Financial", Reps: -1},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: 2, Arm: 0}}},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: 0.5, Arm: 3}}},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", q)
		}
	}
	good := []WhatIfQuery{
		whatIfTestQuery(),
		{Workload: "Financial", Actuators: 12, RPM: 10000, ArrivalScale: 100, Reps: 65},
	}
	for _, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", q, err)
		}
	}
}

// TestWhatIfRunsPastServingLimits runs a design point outside the
// service grid — 10000 RPM, 12 actuators — as idpsweep does, and a
// spindle speed past the drive model's bound, which the model refuses.
func TestWhatIfRunsPastServingLimits(t *testing.T) {
	q := WhatIfQuery{Workload: "Websearch", Actuators: 12, RPM: 10000, Requests: 500, Seed: 3}
	r, err := RunWhatIf(context.Background(), q, q.Seed, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 500 || r.TotalArms != 12 || r.Label != "Websearch/SA(12)/10000" {
		t.Errorf("run %q completed %d on %d arms", r.Label, r.Completed, r.TotalArms)
	}
	q.RPM = 2e6
	if _, err := RunWhatIf(context.Background(), q, q.Seed, Observe{}); err == nil || !strings.Contains(err.Error(), "RPM") {
		t.Errorf("RPM 2e6: err = %v, want the model's RPM bound", err)
	}
}

// TestPoolWhatIfAggregates: the pool holds every replicate's
// observations and one mean per replicate, and the CI95 of those means
// brackets the pooled mean.
func TestPoolWhatIfAggregates(t *testing.T) {
	q := whatIfTestQuery()
	q.Reps = 4
	p, err := PoolWhatIf(runWhatIfJobs(t, q, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Merged.Count(); got != q.Reps*q.Requests {
		t.Errorf("merged count %d, want %d", got, q.Reps*q.Requests)
	}
	if got := p.Means.Count(); got != q.Reps {
		t.Errorf("means count %d, want %d", got, q.Reps)
	}
	lo, hi := p.Means.CI95()
	if mean := p.Merged.Mean(); !(lo < mean && mean < hi) {
		t.Errorf("CI95 [%v, %v] excludes the pooled mean %v", lo, hi, mean)
	}
}

// TestPoolWhatIfDeterministic: the pooled answer is a function of the
// replicates alone, whatever the fleet parallelism that ran them.
func TestPoolWhatIfDeterministic(t *testing.T) {
	q := whatIfTestQuery()
	q.Reps = 4
	pool := func(par int) string {
		p, err := PoolWhatIf(runWhatIfJobs(t, q, par))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := p.Means.CI95()
		return fmt.Sprintf("%d %v %v %v %v %v %v %v %v", p.Merged.Count(), p.Merged.Mean(), lo, hi,
			p.Merged.Percentile(50), p.Merged.Percentile(99), p.TotalW, p.Power.Watts, p.Power.Elapsed)
	}
	if a, b := pool(1), pool(4); a != b {
		t.Errorf("pooled answer depends on parallelism:\n%s\nvs\n%s", a, b)
	}
}

// TestPoolWhatIfOneReplicate: one replicate pools to itself — its
// sample, its mean as both CI95 bounds bit for bit, its power.
func TestPoolWhatIfOneReplicate(t *testing.T) {
	r, err := RunWhatIf(context.Background(), whatIfTestQuery(), 7, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Resp.Mean()
	p, err := PoolWhatIf([]*WhatIfRun{r})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.Means.CI95(); lo != mean || hi != mean || p.Merged.Mean() != mean {
		t.Errorf("CI95 [%v, %v], pooled mean %v; want all %v", lo, hi, p.Merged.Mean(), mean)
	}
	if p.Merged.Count() != r.Resp.Count() || p.TotalW != r.Power.Total() ||
		p.Power.Watts != r.Power.Watts || p.Power.Elapsed != r.ElapsedMs {
		t.Errorf("pool of one differs from its run: %+v vs %+v", p.Power, r.Power)
	}
}

func TestPoolWhatIfRejectsNone(t *testing.T) {
	if _, err := PoolWhatIf(nil); err == nil {
		t.Fatal("pooling zero runs: want error")
	}
}

// cancelAfterCtx is a deterministic mid-run cancellation: it reports
// itself canceled starting from the n-th Err poll, with no goroutines
// or wall-clock involved. The replay polls Err once per arrival batch,
// so the n-th poll is the n-th batch boundary.
type cancelAfterCtx struct {
	context.Context
	n     int
	polls int
}

func (c *cancelAfterCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestWhatIfCancelStopsWithinBatch pins the promptness contract: a
// canceled job schedules no arrivals past the batch in which it
// observed the cancellation, and returns the context error instead of
// a partial result.
func TestWhatIfCancelStopsWithinBatch(t *testing.T) {
	q := whatIfTestQuery()
	q.Reps = 1
	q.ArmFaults = nil
	q.Requests = 20000

	ctx := &cancelAfterCtx{Context: context.Background(), n: 3}
	r, err := RunWhatIf(ctx, q, 7, Observe{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Fatalf("canceled run returned a partial result: %+v", r)
	}
	// The third poll happens on arrival 3*whatIfCancelBatch; nothing
	// beyond that batch may have been scheduled.
	if got, limit := ctx.polls, 3; got != limit {
		t.Errorf("ctx polled %d times, want exactly %d (stop within one batch)", got, limit)
	}
}
