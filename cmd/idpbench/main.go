// Command idpbench regenerates the tables and figures of "Intra-Disk
// Parallelism: An Idea Whose Time Has Come" (ISCA 2008) on the simulator
// in this repository.
//
// Usage:
//
//	idpbench [-exp all|table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|degradation|lpraid|table9a|fig9b]
//	         [-requests N] [-seed S] [-workload NAME] [-parallel N] [-lpworkers N] [-quiet]
//	         [-trace out.jsonl] [-metrics] [-pprof out.pb.gz]
//	idpbench -exp calibration -calibrate fin.spc,srv.msr
//
// The calibration experiment is the only one needing external input —
// real trace files (native, SPC CSV, MSR CSV, or blkparse text; format
// auto-detected) — so it is not part of -exp all: each named trace is
// ingested, a synthetic workload is fitted to its streaming profile,
// and both replay through the same HC-SD, reporting the divergence.
//
// Independent simulations fan out across -parallel workers (default: all
// cores) through internal/fleet; every table is buffered per section and
// printed in canonical order, so the output is byte-identical at any
// parallelism level. Progress is reported on stderr.
//
// -lpworkers parallelizes *within* the lpraid scenario — a 64-drive
// partitioned array (internal/simkit/par), the one simulation too wide
// for a single event loop, run healthy and again degraded (RAID-5 member
// death and rebuild crossing the links). 1 (the default) advances its
// logical processes one at a time, 0 uses all cores. Output bytes are
// identical at every worker count; only wall-clock time changes.
//
// With -trace, every simulated request's lifecycle span events
// (submit/queue/seek/rotate/transfer/complete, with actuator ids) are
// written as JSON lines; per-job traces are buffered in memory and
// flushed in submission order, so the JSONL file is also byte-identical
// at any parallelism. With -metrics, each section appends the systems'
// statistics snapshots. -pprof writes a CPU profile of the whole run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (all, table1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, degradation, lpraid, ablations, altpower, workloads, table9a, fig9b, calibration)")
		calib    = flag.String("calibrate", "", "comma-separated real trace files for -exp calibration")
		requests = flag.Int("requests", experiments.DefaultConfig().Requests, "requests per workload replay")
		seed     = flag.Int64("seed", experiments.DefaultConfig().Seed, "workload synthesis seed")
		wl       = flag.String("workload", "", "restrict trace experiments to one workload (Financial, Websearch, TPC-C, TPC-H)")
		parallel = flag.Int("parallel", 0, "worker-pool size for independent simulations (0 = GOMAXPROCS)")
		lpWork   = flag.Int("lpworkers", 1, "lpraid only: goroutines advancing the partitioned array's logical processes (0 = all cores; byte-identical output)")
		quiet    = flag.Bool("quiet", false, "suppress per-section progress on stderr")
		traceOut = flag.String("trace", "", "write request-lifecycle span events to this JSONL file")
		metrics  = flag.Bool("metrics", false, "append device statistics snapshots to each section")
		pprofOut = flag.String("pprof", "", "write a CPU profile to this file")
	)
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "idpbench: -parallel must be >= 0")
		os.Exit(1)
	}
	if *lpWork < 0 {
		fmt.Fprintf(os.Stderr, "idpbench: -lpworkers must be >= 0, got %d\n", *lpWork)
		os.Exit(1)
	}
	if *lpWork != 1 && *exp != "all" && *exp != "lpraid" {
		fmt.Fprintf(os.Stderr, "idpbench: -lpworkers requires -exp lpraid (or all), got -exp %s\n", *exp)
		os.Exit(1)
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	cfg := experiments.Config{
		Requests:    *requests,
		Seed:        *seed,
		Parallelism: *parallel,
		Observe:     experiments.Observe{Trace: *traceOut != "", Metrics: *metrics},
	}

	workloads := trace.Workloads()
	if *wl != "" {
		w, err := trace.WorkloadByName(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workloads = []trace.WorkloadSpec{w}
	}

	var sink *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
	}

	var progress func(done, total int, job string)
	if !*quiet {
		progress = fleet.WriterProgress(os.Stderr)
	}
	var calibrate []string
	if *calib != "" {
		for _, p := range strings.Split(*calib, ",") {
			if p = strings.TrimSpace(p); p != "" {
				calibrate = append(calibrate, p)
			}
		}
	}
	if err := run(os.Stdout, *exp, cfg, *lpWork, workloads, calibrate, progress, sink); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if sink != nil && sink.Err() != nil {
		fmt.Fprintln(os.Stderr, "idpbench: trace output:", sink.Err())
		os.Exit(1)
	}
}

// section is one workload's rendered output plus the span events its
// simulations recorded (nil when tracing is off).
type section struct {
	text   string
	events []obs.Event
}

// perWorkload renders one section for every workload concurrently and
// writes the buffered outputs to out — and the buffered span events to
// sink — in canonical workload order.
func perWorkload(out io.Writer, name string, workloads []trace.WorkloadSpec,
	cfg experiments.Config, progress func(int, int, string), sink obs.Sink,
	render func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error)) error {
	jobs := make([]fleet.Job[section], len(workloads))
	for i, w := range workloads {
		w := w
		jobs[i] = fleet.Job[section]{
			Name: name + "/" + w.Name,
			Run: func(context.Context, int64) (section, error) {
				var buf bytes.Buffer
				evs, err := render(w, &buf)
				if err != nil {
					return section{}, err
				}
				return section{text: buf.String(), events: evs}, nil
			},
		}
	}
	sections, err := fleet.Run(jobs, fleet.Options{
		Parallelism: cfg.Parallelism,
		BaseSeed:    cfg.Seed,
		Progress:    progress,
	})
	if err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := io.WriteString(out, s.text); err != nil {
			return err
		}
		if sink != nil {
			for _, ev := range s.events {
				sink.Emit(ev)
			}
		}
	}
	return nil
}

// collect appends the runs' span events to evs, in run order.
func collect(evs []obs.Event, runs ...experiments.Run) []obs.Event {
	for _, r := range runs {
		evs = append(evs, r.Events...)
	}
	return evs
}

// writeSnapshots appends the runs' statistics snapshots (recorded when
// -metrics is set) to the section buffer.
func writeSnapshots(buf *bytes.Buffer, runs ...experiments.Run) {
	for _, r := range runs {
		if r.Snap != nil {
			obs.WriteText(buf, *r.Snap)
		}
	}
}

// writeSnapshotsOut is writeSnapshots for unbuffered sections.
func writeSnapshotsOut(out io.Writer, runs ...experiments.Run) {
	for _, r := range runs {
		if r.Snap != nil {
			obs.WriteText(out, *r.Snap)
		}
	}
}

func run(out io.Writer, exp string, cfg experiments.Config, lpWorkers int, workloads []trace.WorkloadSpec,
	calibrate []string, progress func(int, int, string), sink obs.Sink) error {
	all := exp == "all"
	ran := false

	if all || exp == "table1" {
		ran = true
		experiments.WriteTable1(out)
		fmt.Fprintln(out)
	}

	if all || exp == "fig2" || exp == "fig3" {
		ran = true
		err := perWorkload(out, "fig2+3", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				ls, err := experiments.LimitStudy(w, cfg)
				if err != nil {
					return nil, err
				}
				if all || exp == "fig2" {
					experiments.WriteCDFTable(buf,
						fmt.Sprintf("Figure 2 (%s): response-time CDF, MD vs HC-SD", w.Name),
						[]experiments.Run{ls.MD, ls.HCSD})
					fmt.Fprintln(buf)
				}
				if all || exp == "fig3" {
					experiments.WritePowerTable(buf,
						fmt.Sprintf("Figure 3 (%s): average power, MD vs HC-SD", w.Name),
						[]experiments.Run{ls.MD, ls.HCSD})
					fmt.Fprintln(buf)
				}
				writeSnapshots(buf, ls.MD, ls.HCSD)
				return collect(nil, ls.MD, ls.HCSD), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "fig4" {
		ran = true
		err := perWorkload(out, "fig4", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				ls, err := experiments.LimitStudy(w, cfg)
				if err != nil {
					return nil, err
				}
				b, err := experiments.Bottleneck(w, cfg)
				if err != nil {
					return nil, err
				}
				runs := append([]experiments.Run{ls.HCSD}, b.Cases...)
				runs = append(runs, ls.MD)
				experiments.WriteCDFTable(buf,
					fmt.Sprintf("Figure 4 (%s): bottleneck analysis of HC-SD", w.Name), runs)
				fmt.Fprintln(buf)
				writeSnapshots(buf, runs...)
				return collect(nil, runs...), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "fig5" {
		ran = true
		err := perWorkload(out, "fig5", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				ma, err := experiments.MultiActuator(w, cfg, 4)
				if err != nil {
					return nil, err
				}
				runs := append(append([]experiments.Run{}, ma.Runs...), ma.MD)
				experiments.WriteCDFTable(buf,
					fmt.Sprintf("Figure 5 (%s): response-time CDF, HC-SD-SA(n)", w.Name), runs)
				experiments.WritePDFTable(buf,
					fmt.Sprintf("Figure 5 (%s): rotational-latency PDF", w.Name), ma.Runs)
				fmt.Fprintln(buf)
				writeSnapshots(buf, runs...)
				return collect(nil, runs...), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "fig6" || exp == "fig7" {
		ran = true
		err := perWorkload(out, "fig6+7", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				rr, err := experiments.ReducedRPM(w, cfg)
				if err != nil {
					return nil, err
				}
				if all || exp == "fig6" {
					runs := append([]experiments.Run{rr.HCSD}, rr.Runs...)
					experiments.WritePowerTable(buf,
						fmt.Sprintf("Figure 6 (%s): average power of reduced-RPM designs", w.Name), runs)
					fmt.Fprintln(buf)
				}
				if all || exp == "fig7" {
					runs := append(append([]experiments.Run{}, rr.Runs...), rr.MD)
					experiments.WriteCDFTable(buf,
						fmt.Sprintf("Figure 7 (%s): reduced-RPM designs vs MD", w.Name), runs)
					fmt.Fprintln(buf)
				}
				writeSnapshots(buf, rr.HCSD, rr.MD)
				writeSnapshots(buf, rr.Runs...)
				evs := collect(nil, rr.HCSD, rr.MD)
				return collect(evs, rr.Runs...), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "fig8" {
		ran = true
		rs, err := experiments.RAIDStudy(cfg)
		if err != nil {
			return err
		}
		experiments.WriteRAIDStudy(out, rs)
		fmt.Fprintln(out)
		if cfg.Observe.Metrics {
			var snaps []obs.Snapshot
			for _, p := range rs.Points {
				if p.Snap != nil {
					snaps = append(snaps, *p.Snap)
				}
			}
			if len(snaps) > 0 {
				fmt.Fprintln(out, "Figure 8: merged array statistics across all points")
				obs.WriteText(out, fleet.MergeSnapshots(snaps))
				fmt.Fprintln(out)
			}
		}
		if sink != nil {
			for _, p := range rs.Points {
				for _, ev := range p.Events {
					sink.Emit(ev)
				}
			}
		}
	}

	if all || exp == "lpraid" {
		ran = true
		// The healthy scale run, then the same array serving through a
		// member death and rebuild — both on the partitioned engine, both
		// byte-identical at any -lpworkers.
		for _, degraded := range []bool{false, true} {
			opts := experiments.LPRAIDOpts{Workers: lpWorkers, Degraded: degraded}
			lr, err := experiments.LPRAID(cfg, opts)
			if err != nil {
				return err
			}
			experiments.WriteLPRAID(out, lr)
			fmt.Fprintln(out)
			if cfg.Observe.Metrics && lr.Snap != nil {
				obs.WriteText(out, *lr.Snap)
				fmt.Fprintln(out)
			}
			if sink != nil {
				for _, ev := range lr.Events {
					sink.Emit(ev)
				}
			}
		}
	}

	if all || exp == "degradation" {
		ran = true
		err := perWorkload(out, "degradation", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				dr, err := experiments.DegradationStudy(w, cfg)
				if err != nil {
					return nil, err
				}
				experiments.WriteDegradationTable(buf, dr)
				fmt.Fprintln(buf)
				runs := make([]experiments.Run, len(dr.Runs))
				for i, r := range dr.Runs {
					runs[i] = r.Run
				}
				writeSnapshots(buf, runs...)
				return collect(nil, runs...), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "ablations" {
		ran = true
		err := perWorkload(out, "ablations", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				sr, err := experiments.SchedulerAblation(w, cfg)
				if err != nil {
					return nil, err
				}
				experiments.WriteSummaryTable(buf,
					fmt.Sprintf("Ablation (%s): disk scheduler on HC-SD", w.Name), sr)
				cr, err := experiments.CacheAblation(w, cfg)
				if err != nil {
					return nil, err
				}
				experiments.WriteSummaryTable(buf,
					fmt.Sprintf("Ablation (%s): HC-SD cache size", w.Name), cr)
				rr, err := experiments.RelaxedDesignAblation(w, cfg, 2)
				if err != nil {
					return nil, err
				}
				experiments.WriteSummaryTable(buf,
					fmt.Sprintf("Ablation (%s): relaxed parallel designs", w.Name), rr)
				spread, colocated, err := experiments.PlacementAblation(w, cfg, 4)
				if err != nil {
					return nil, err
				}
				experiments.WriteSummaryTable(buf,
					fmt.Sprintf("Ablation (%s): angular arm placement (rot mean %.2f vs %.2f ms)",
						w.Name, spread.RotLat.Mean(), colocated.RotLat.Mean()),
					[]experiments.Run{spread, colocated})
				fmt.Fprintln(buf)
				return nil, nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "workloads" {
		ran = true
		fmt.Fprintln(out, "Workload calibration: synthesized trace statistics (Table 2 shapes)")
		err := perWorkload(out, "workloads", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				g, err := trace.NewGenerator(w.WithRequests(cfg.Requests), cfg.Seed)
				if err != nil {
					return nil, err
				}
				st, err := trace.AnalyzeStream(g)
				if err != nil {
					return nil, err
				}
				trace.WriteStats(buf, w.Name, st)
				return nil, nil
			})
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if all || exp == "altpower" {
		ran = true
		err := perWorkload(out, "altpower", workloads, cfg, progress, sink,
			func(w trace.WorkloadSpec, buf *bytes.Buffer) ([]obs.Event, error) {
				ap, err := experiments.AltPower(w, cfg)
				if err != nil {
					return nil, err
				}
				experiments.WriteSummaryTable(buf,
					fmt.Sprintf("Alternative power knobs (%s): DRPM vs reduced-RPM intra-disk parallelism", w.Name),
					[]experiments.Run{ap.HCSD, ap.DRPM, ap.SA4Low})
				fmt.Fprintln(buf)
				writeSnapshots(buf, ap.HCSD, ap.DRPM, ap.SA4Low)
				return collect(nil, ap.HCSD, ap.DRPM, ap.SA4Low), nil
			})
		if err != nil {
			return err
		}
	}

	if all || exp == "table9a" {
		ran = true
		fmt.Fprintln(out, "Table 9a: estimated component and drive material costs (USD)")
		prices := cost.UnitPrices()
		fmt.Fprintf(out, "%-18s %12s\n", "component", "unit price")
		for _, c := range cost.Components() {
			p := prices[c]
			fmt.Fprintf(out, "%-18s %5.2f-%5.2f\n", c, p.Low, p.High)
		}
		for _, a := range []int{1, 2, 4} {
			r, err := cost.DriveCost(4, a)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d-actuator drive: %.1f-%.1f\n", a, r.Low, r.High)
		}
		fmt.Fprintln(out)
	}

	if all || exp == "fig9b" {
		ran = true
		fmt.Fprintln(out, "Figure 9b: iso-performance cost comparison")
		costs, err := cost.IsoPerformanceCosts()
		if err != nil {
			return err
		}
		configs := cost.IsoPerformanceConfigs()
		base := costs[0].Mid()
		for i, c := range configs {
			r := costs[i]
			fmt.Fprintf(out, "  %-28s %.1f-%.1f (mid %.1f, %+.0f%% vs conventional)\n",
				c.Label, r.Low, r.High, r.Mid(), 100*(r.Mid()-base)/base)
		}
		fmt.Fprintln(out)
	}

	// Calibration is opt-in only (never part of "all"): it needs real
	// trace files the repository cannot ship at full size.
	if exp == "calibration" {
		ran = true
		if len(calibrate) == 0 {
			return fmt.Errorf("-exp calibration requires -calibrate file1[,file2,...]")
		}
		for _, p := range calibrate {
			res, err := experiments.CalibrationStudy(p, cfg)
			if err != nil {
				return err
			}
			experiments.WriteCalibrationTable(out, res)
			fmt.Fprintln(out)
			writeSnapshotsOut(out, res.RealRun, res.SynthRun)
			if sink != nil {
				for _, ev := range collect(nil, res.RealRun, res.SynthRun) {
					sink.Emit(ev)
				}
			}
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
