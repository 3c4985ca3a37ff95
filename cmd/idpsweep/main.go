// Command idpsweep sweeps the intra-disk parallel design space —
// actuator count × spindle speed — for one workload and emits a CSV of
// performance, power, thermal and cost figures per design point. This is
// the exploration loop a drive architect would run on top of the library.
//
// Design points are independent simulations, so they fan out across
// -parallel workers (default: all cores); rows are always emitted in
// sweep order (actuators outer, RPMs inner) regardless of completion
// order. -reps N replays each design point at N independently derived
// seeds and reports the pooled statistics plus a 95% confidence interval
// of the per-replicate means; the same derived seeds are used at every
// design point so points are compared under identical randomness.
//
// Usage:
//
//	idpsweep -workload Websearch -requests 60000 [-parallel N] [-reps R] > sweep.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/thermal"
	"repro/internal/trace"
)

func main() {
	var (
		wl       = flag.String("workload", "Websearch", "workload name")
		requests = flag.Int("requests", 60000, "requests per design point")
		seed     = flag.Int64("seed", 1, "workload seed")
		armsFlag = flag.String("actuators", "1,2,3,4", "comma-separated actuator counts")
		rpmsFlag = flag.String("rpms", "7200,6200,5200,4200", "comma-separated spindle speeds")
		parallel = flag.Int("parallel", 0, "worker-pool size for design points (0 = GOMAXPROCS)")
		reps     = flag.Int("reps", 1, "replicates per design point (derived seeds; 1 = single run at -seed)")
		quiet    = flag.Bool("quiet", false, "suppress per-point progress on stderr")
	)
	flag.Parse()
	if err := run(os.Stdout, *wl, *requests, *seed, *armsFlag, *rpmsFlag, *parallel, *reps, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseIntList parses a comma-separated list of integers, rejecting
// empty lists, empty elements, and values below min — bad actuator
// counts or spindle speeds otherwise panic deep inside the drive model.
func parseIntList(name, s string, min int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("idpsweep: -%s: empty list", name)
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("idpsweep: -%s: empty element in %q", name, s)
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("idpsweep: -%s: %q is not an integer", name, f)
		}
		if v < min {
			return nil, fmt.Errorf("idpsweep: -%s: %d is out of range (must be >= %d)", name, v, min)
		}
		out = append(out, v)
	}
	return out, nil
}

// minRPM rejects spindle speeds the mechanical model cannot mean: the
// paper's design space bottoms out at 4200 RPM, and anything below ~1000
// is a typo, not a drive.
const minRPM = 1000

func run(out *os.File, wl string, requests int, seed int64, armsFlag, rpmsFlag string, parallel, reps int, quiet bool) error {
	spec, err := trace.WorkloadByName(wl)
	if err != nil {
		return err
	}
	arms, err := parseIntList("actuators", armsFlag, 1)
	if err != nil {
		return err
	}
	rpms, err := parseIntList("rpms", rpmsFlag, minRPM)
	if err != nil {
		return err
	}
	if requests < 1 {
		return fmt.Errorf("idpsweep: -requests must be >= 1")
	}
	if reps < 1 {
		return fmt.Errorf("idpsweep: -reps must be >= 1")
	}
	if parallel < 0 {
		return fmt.Errorf("idpsweep: -parallel must be >= 0")
	}
	env := thermal.Default()

	var points []experiments.WhatIfQuery
	for _, a := range arms {
		for _, rpm := range rpms {
			points = append(points, experiments.WhatIfQuery{
				Workload:  spec.Name,
				Actuators: a,
				RPM:       float64(rpm),
				Requests:  requests,
				Seed:      seed,
				Reps:      reps,
			})
		}
	}
	jobs := make([]fleet.Job[string], len(points))
	for i, q := range points {
		jobs[i] = fleet.Job[string]{
			Name: fmt.Sprintf("SA(%d)/%d", q.Actuators, int(q.RPM)),
			Run: func(context.Context, int64) (string, error) {
				return evalPoint(q, env)
			},
		}
	}
	var progress func(int, int, string)
	if !quiet {
		progress = fleet.WriterProgress(os.Stderr)
	}
	rows, err := fleet.Run(jobs, fleet.Options{
		Parallelism: parallel,
		BaseSeed:    seed,
		Progress:    progress,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "actuators,rpm,reps,mean_ms,ci95_lo_ms,ci95_hi_ms,p90_ms,p99_ms,avg_power_w,peak_power_w,temp_c,in_envelope,cost_low_usd,cost_high_usd")
	for _, r := range rows {
		fmt.Fprint(out, r)
	}
	return nil
}

// evalPoint measures one design point: the query's replicates (run
// serially inside the already-parallel point fan-out) pooled into
// response statistics with a CI over per-replicate means, plus the
// analytic power, thermal and cost figures. A single replicate runs at
// the query's seed itself; more run at seeds derived from it, the same
// at every design point, so points compare under identical randomness.
func evalPoint(q experiments.WhatIfQuery, env thermal.Envelope) (string, error) {
	var runs []*experiments.WhatIfRun
	if q.Reps == 1 {
		r, err := experiments.RunWhatIf(context.Background(), q, q.Seed, experiments.Observe{})
		if err != nil {
			return "", err
		}
		runs = []*experiments.WhatIfRun{r}
	} else {
		var err error
		runs, err = fleet.Run(experiments.WhatIfJobs(q, experiments.Observe{}),
			fleet.Options{Parallelism: 1, BaseSeed: q.Seed})
		if err != nil {
			return "", err
		}
	}
	p, err := experiments.PoolWhatIf(runs)
	if err != nil {
		return "", err
	}
	lo, hi := p.Means.CI95()
	sm := p.Merged.Summarize()

	pm, err := experiments.SAPowerModel(q.Actuators, q.RPM)
	if err != nil {
		return "", err
	}
	temp, ok := env.CheckModel(pm)
	c, err := cost.DriveCost(4, q.Actuators)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.1f,%v,%.1f,%.1f\n",
		q.Actuators, int(q.RPM), q.Reps,
		p.Merged.Mean(), lo, hi, sm.P90, sm.P99,
		p.TotalW, pm.PeakPower(), temp, ok, c.Low, c.High), nil
}
