package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Query is the wire form of one what-if question: the simulation
// parameters (embedded experiments.WhatIfQuery) plus response options.
// Every field participates in the content-addressed cache key — two
// requests whose normalized queries are equal are the same question.
type Query struct {
	experiments.WhatIfQuery

	// IncludeMetrics attaches the drive's statistics snapshot tree
	// (canonical obs JSON, merged across replicates) to the result.
	IncludeMetrics bool `json:"include_metrics,omitempty"`
	// IncludeTrace attaches the replay's request-lifecycle span events.
	// Traces grow with Requests, so it is only allowed at or below
	// MaxTraceRequests.
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// MaxTraceRequests bounds the replay length of queries that ask for a
// span trace: a trace holds several events per request, so unbounded
// traced queries would let one request exhaust the server's memory.
const MaxTraceRequests = 50000

// Normalize fills defaults so equivalent spellings hash identically.
func (q Query) Normalize() Query {
	q.WhatIfQuery = q.WhatIfQuery.Normalize()
	return q
}

// maxActuators bounds the design space a query may ask about; it
// matches the largest SA(n) the paper evaluates (Figure 5 stops at 4,
// the ablations go to 8).
const maxActuators = 8

// servedRPMs are the spindle speeds a query may select, the paper's
// Figure 6 grid plus the stock 7200 (0 keeps the model default).
var servedRPMs = map[float64]bool{7200: true, 6200: true, 5200: true, 4200: true}

// Validate extends the simulation-side validation with serving limits:
// the evaluated RPM grid, at most maxActuators arms, an arrival scale in
// [0.1, 16], at most 8M requests and 64 reps, and a bounded traced
// replay. Checks run in field order — the workload, the limits, then
// the simulation side's own checks — so a query breaking several rules
// is rejected for its first field.
func (q Query) Validate() error {
	w := q.WhatIfQuery.Normalize()
	if _, err := trace.WorkloadByName(w.Workload); err != nil {
		return fmt.Errorf("what-if: %w", err)
	}
	switch {
	case w.Actuators < 1 || w.Actuators > maxActuators:
		return fmt.Errorf("what-if: actuators %d outside [1,%d]", w.Actuators, maxActuators)
	case w.RPM != 0 && !servedRPMs[w.RPM]:
		return fmt.Errorf("what-if: rpm %g not in the evaluated grid (7200, 6200, 5200, 4200)", w.RPM)
	case w.ArrivalScale < 0.1 || w.ArrivalScale > 16:
		return fmt.Errorf("what-if: arrival_scale %g outside [0.1,16]", w.ArrivalScale)
	case w.Requests < 1 || w.Requests > 8_000_000:
		return fmt.Errorf("what-if: requests %d outside [1,8000000]", w.Requests)
	case w.Reps < 1 || w.Reps > 64:
		return fmt.Errorf("what-if: reps %d outside [1,64]", w.Reps)
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if q.IncludeTrace && w.Requests > MaxTraceRequests {
		return fmt.Errorf("serve: include_trace allows at most %d requests", MaxTraceRequests)
	}
	return nil
}

// Key is the content address of the query's answer: a SHA-256 over the
// code version and the normalized query's canonical JSON. The
// determinism contract (same query + seed + code ⇒ byte-identical
// output, enforced by idplint and the byte-identity tests) is what
// makes this sound: everything the answer depends on is in the key, so
// a cached answer *is* the answer. The code version participates
// because a code change may legitimately change results — a stale
// binary's cache entries die with its keys.
func (q Query) Key(codeVersion string) (string, error) {
	canon, err := json.Marshal(q.Normalize())
	if err != nil {
		return "", fmt.Errorf("serve: hashing query: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(codeVersion))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Summary is the pooled response-time summary over every replicate's
// observations.
type Summary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// CDF is the paper's response-time CDF over its standard bucket edges.
type CDF struct {
	EdgesMs []float64 `json:"edges_ms"`
	Frac    []float64 `json:"frac"`
}

// Power is the average power draw, stacked by operating mode like the
// paper's Figure 3, averaged over replicates.
type Power struct {
	TotalW      float64 `json:"total_w"`
	IdleW       float64 `json:"idle_w"`
	SeekW       float64 `json:"seek_w"`
	RotLatencyW float64 `json:"rot_latency_w"`
	TransferW   float64 `json:"transfer_w"`
}

// Arms reports the actuator state at the end of the replay.
type Arms struct {
	Healthy int `json:"healthy"`
	Total   int `json:"total"`
}

// Faults reports the fault plan's accounting (per replicate; the plan
// is identical across replicates of a query).
type Faults struct {
	Injected uint64 `json:"injected"`
	Refused  uint64 `json:"refused"`
}

// Result is one query's answer. Its JSON encoding is canonical — field
// order is fixed by the struct, the snapshot uses obs.MarshalSnapshot,
// and every value is a pure function of (query, code version) — so the
// serialized result is cacheable and byte-comparable.
type Result struct {
	Query       Query   `json:"query"`
	Key         string  `json:"key"`
	CodeVersion string  `json:"code_version"`
	Reps        int     `json:"reps"`
	Summary     Summary `json:"summary"`
	// CI95MeanMs brackets the mean response time using the spread of
	// per-replicate means (meaningful from 2 reps up).
	CI95MeanMs [2]float64 `json:"ci95_mean_ms"`
	CDF        CDF        `json:"cdf"`
	Power      Power      `json:"power"`
	// SimElapsedMs is the simulated duration of one replicate (mean
	// across replicates).
	SimElapsedMs float64         `json:"sim_elapsed_ms"`
	Arms         Arms            `json:"arms"`
	Faults       *Faults         `json:"faults,omitempty"`
	Snapshot     json.RawMessage `json:"snapshot,omitempty"`
	Trace        []obs.Event     `json:"trace,omitempty"`
}

// buildResult folds the replicate runs (in replicate order — the order
// fleet returns them, independent of scheduling) into the canonical
// answer body.
func buildResult(q Query, key, codeVersion string, runs []*experiments.WhatIfRun) ([]byte, error) {
	p, err := experiments.PoolWhatIf(runs)
	if err != nil {
		return nil, err
	}
	lo, hi := p.Means.CI95()
	sm := p.Merged.Summarize()
	res := &Result{
		Query:       q.Normalize(),
		Key:         key,
		CodeVersion: codeVersion,
		Reps:        len(runs),
		Summary: Summary{
			Count:  sm.Count,
			MeanMs: p.Merged.Mean(),
			P50Ms:  sm.P50,
			P90Ms:  sm.P90,
			P99Ms:  sm.P99,
			MaxMs:  sm.Max,
		},
		CI95MeanMs: [2]float64{lo, hi},
		CDF: CDF{
			EdgesMs: stats.ResponseBucketEdgesMs,
			Frac:    p.Merged.ResponseCDF(),
		},
		Power: Power{
			TotalW:      p.TotalW,
			IdleW:       p.Power.Watts[power.Idle],
			SeekW:       p.Power.Watts[power.Seek],
			RotLatencyW: p.Power.Watts[power.RotLatency],
			TransferW:   p.Power.Watts[power.Transfer],
		},
		SimElapsedMs: p.Power.Elapsed,
		Arms:         Arms{Healthy: runs[0].HealthyArms, Total: runs[0].TotalArms},
	}
	if len(q.ArmFaults) > 0 {
		res.Faults = &Faults{Injected: runs[0].FaultsInjected, Refused: runs[0].FaultsRefused}
	}
	if q.IncludeMetrics {
		if runs[0].Snap == nil {
			return nil, fmt.Errorf("serve: metrics requested but no snapshot recorded")
		}
		snap := runs[0].Snap.Clone()
		for _, r := range runs[1:] {
			snap = snap.Merge(*r.Snap)
		}
		data, err := obs.MarshalSnapshot(snap)
		if err != nil {
			return nil, err
		}
		res.Snapshot = data
	}
	if q.IncludeTrace {
		for _, r := range runs {
			res.Trace = append(res.Trace, r.Events...)
		}
	}
	return json.Marshal(res)
}
