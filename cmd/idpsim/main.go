// Command idpsim runs one workload against one storage configuration and
// prints the response-time distribution and power breakdown.
//
// Usage:
//
//	idpsim -workload Websearch -system sa4 [-requests N] [-seed S] [-rpm R]
//	idpsim -replay file.trc -system hcsd
//	idpsim -system sa4 -trace out.jsonl -metrics
//	idpsim -system raid64 -lpworkers 0
//
// Systems:
//
//	md     the workload's original multi-disk array (Table 2)
//	hcsd   the single 750 GB high-capacity drive
//	saN    the intra-disk parallel drive HC-SD-SA(N), e.g. sa2, sa4
//	raidN  a partitioned RAID-0 of N HC-SD drives: the controller and
//	       every member simulate on their own logical process
//	       (internal/simkit/par), coupled through links whose latency is
//	       the engine's conservative lookahead
//
// -lpworkers N (raidN only) sets how many goroutines advance the
// logical processes: 1 (the default) simulates them one at a time, 0
// uses all cores. The output is byte-identical at every worker count;
// only wall-clock time changes.
//
// -degraded (raidN only, N >= 3) swaps the stripe set to RAID-5 and
// injects experiments.MemberDeathPlan, the degradation study's
// timeline: the middle member dies mid-run and is rebuilt under load,
// the rebuild's survivor reads and reconstruction writes crossing the
// member links behind foreground traffic. Still byte-identical at any
// worker count.
// -replay is rejected for raidN: partitioned arrays replay synthesized
// workloads only.
//
// Observability:
//
//	-trace out.jsonl  stream every request's lifecycle span events
//	                  (submit/queue/seek/rotate/transfer/complete, with
//	                  the servicing actuator id) as JSON lines
//	-metrics          print the device's obs.Snapshot after the run
//	-pprof out.pb.gz  write a CPU profile of the simulation
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		wl       = flag.String("workload", "Websearch", "workload name (Financial, Websearch, TPC-C, TPC-H)")
		replay   = flag.String("replay", "", "replay a trace file (native, SPC CSV, MSR CSV, or blkparse text; format auto-detected) instead of synthesizing a workload")
		reorder  = flag.Int("reorder", 0, "with -replay: tolerate arrivals out of order by up to N requests (bounded reorder buffer)")
		system   = flag.String("system", "hcsd", "storage system: md, hcsd, saN (e.g. sa4), or raidN (e.g. raid64)")
		requests = flag.Int("requests", 100000, "requests to synthesize")
		seed     = flag.Int64("seed", 1, "workload synthesis seed")
		rpm      = flag.Float64("rpm", 0, "override drive RPM (reduced-RPM designs)")
		degraded = flag.Bool("degraded", false, "raidN only: RAID-5 with a mid-run member death and rebuild under load")
		lpWork   = flag.Int("lpworkers", 1, "raidN only: goroutines advancing the logical processes (0 = all cores; byte-identical output)")
		traceOut = flag.String("trace", "", "write request-lifecycle span events to this JSONL file")
		metrics  = flag.Bool("metrics", false, "print the device statistics snapshot after the run")
		pprofOut = flag.String("pprof", "", "write a CPU profile to this file")
	)
	flag.Parse()
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
	if err := run(*wl, *replay, *system, *requests, *reorder, *seed, *rpm, *traceOut, *metrics, *degraded, *lpWork); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(wl, replayFile, system string, requests, reorder int, seed int64, rpm float64, traceOut string, metrics, degraded bool, lpWorkers int) error {
	// Unsupported flag combinations fail with one-line errors up front,
	// before any simulation state exists.
	if replayFile != "" && strings.HasPrefix(system, "raid") {
		return fmt.Errorf("-replay is not supported with -system %s: the partitioned array replays synthesized workloads only", system)
	}
	if degraded && !strings.HasPrefix(system, "raid") {
		return fmt.Errorf("-degraded requires -system raidN, got -system %s", system)
	}
	if lpWorkers < 0 {
		return fmt.Errorf("-lpworkers must be >= 0, got %d", lpWorkers)
	}
	if lpWorkers != 1 && !strings.HasPrefix(system, "raid") {
		return fmt.Errorf("-lpworkers requires -system raidN, got -system %s", system)
	}
	if reorder != 0 && replayFile == "" {
		return fmt.Errorf("-reorder only applies with -replay")
	}
	if reorder < 0 {
		return fmt.Errorf("-reorder must be >= 0, got %d", reorder)
	}
	spec, err := trace.WorkloadByName(wl)
	if err != nil {
		return err
	}

	// The workload streams through the simulation — a foreign trace
	// ingests line by line (format sniffed by trace.OpenFile) and a
	// synthesized workload generates on demand, so neither is ever
	// materialized.
	var src trace.Stream
	if replayFile != "" {
		rd, err := trace.OpenFile(replayFile, trace.ReaderOpts{ReorderWindow: reorder})
		if err != nil {
			return err
		}
		defer rd.Close()
		src = rd
	} else {
		g, err := trace.NewGenerator(spec.WithRequests(requests), seed)
		if err != nil {
			return err
		}
		src = g
	}

	var sink obs.Sink
	var jsonl *obs.JSONLSink
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = obs.NewJSONLSink(f)
		sink = jsonl
	}

	// The single-timeline systems run on the sequential engine; raidN
	// below builds its own multi-LP engine.
	var eng simkit.Runner = simkit.New()
	label := system
	var resp *stats.Sample
	var powerOf func(elapsed float64) string
	var instrumented device.Instrumented
	var inj *fault.Injector

	switch {
	case system == "md":
		md, err := experiments.NewMDSystem(eng, spec, obs.Options{Sink: sink})
		if err != nil {
			return err
		}
		s, err := boundToMD(spec, src)
		if err != nil {
			return err
		}
		if resp, err = experiments.ReplayStream(eng, md.Router, s); err != nil {
			return err
		}
		powerOf = func(e float64) string {
			return experiments.WriteBreakdownBar(md.Router.Power(e))
		}
		label = fmt.Sprintf("MD (%d x %s)", spec.Disks, mustModelName(spec))
		instrumented = md.Router

	case system == "hcsd":
		model := hcsdModel(rpm)
		d, err := disk.New(eng, model, disk.Options{Obs: obs.Options{Sink: sink}})
		if err != nil {
			return err
		}
		s, err := hcsdRemap(spec, src)
		if err != nil {
			return err
		}
		if resp, err = experiments.ReplayStream(eng, d, s); err != nil {
			return err
		}
		powerOf = func(e float64) string { return experiments.WriteBreakdownBar(d.Power(e)) }
		label = model.Name
		instrumented = d

	case strings.HasPrefix(system, "sa"):
		n, err := strconv.Atoi(strings.TrimPrefix(system, "sa"))
		if err != nil || n < 1 {
			return fmt.Errorf("bad system %q: want saN with N >= 1", system)
		}
		model := hcsdModel(rpm)
		d, err := core.New(eng, model, core.Config{
			Actuators: n,
			Obs:       obs.Options{Sink: sink},
		})
		if err != nil {
			return err
		}
		s, err := hcsdRemap(spec, src)
		if err != nil {
			return err
		}
		if resp, err = experiments.ReplayStream(eng, d, s); err != nil {
			return err
		}
		powerOf = func(e float64) string { return experiments.WriteBreakdownBar(d.Power(e)) }
		label = fmt.Sprintf("HC-SD-SA(%d) on %s", n, model.Name)
		instrumented = d

	case strings.HasPrefix(system, "raid"):
		n, err := strconv.Atoi(strings.TrimPrefix(system, "raid"))
		if err != nil || n < 1 {
			return fmt.Errorf("bad system %q: want raidN with N >= 1", system)
		}
		model := hcsdModel(rpm)
		memberSectors, err := model.Sectors()
		if err != nil {
			return err
		}
		// The degraded scenario needs a layout that can reconstruct, so
		// -degraded swaps the stripe set to RAID-5.
		level := "RAID-0"
		var layout raid.Layout
		var r5 *raid.RAID5
		if degraded {
			if n < 3 {
				return fmt.Errorf("-degraded needs -system raidN with N >= 3, got %d members", n)
			}
			level = "RAID-5 degraded"
			r5, err = raid.NewRAID5(n, memberSectors, experiments.StripeUnitSectors)
			layout = r5
		} else {
			layout, err = raid.NewRAID0(n, memberSectors, experiments.StripeUnitSectors)
		}
		if err != nil {
			return err
		}
		pe := par.New(n+1, par.Options{Workers: lpWorkers})
		arr, err := raid.NewPartitioned(pe, layout, bus.DefaultLink(), int64(model.Geom.SectorBytes),
			func(s simkit.Scheduler, i int) (device.Device, error) {
				return disk.New(s, model, disk.Options{
					Obs: obs.Options{Sink: pe.LP(1 + i).WrapSink(sink), Name: fmt.Sprintf("raid%d/m%d", n, i)},
				})
			})
		if err != nil {
			return err
		}
		if degraded {
			// The degraded-array plan LPRAID runs, on the CLI's array.
			plan, err := experiments.MemberDeathPlan(r5, spec.MeanInterArrivalMs*float64(requests), seed)
			if err != nil {
				return err
			}
			in, err := fault.NewInjector(pe.LP(0), plan, fault.Targets{Array: arr},
				obs.Options{Sink: pe.LP(0).WrapSink(sink), Name: fmt.Sprintf("raid%d/fault", n)})
			if err != nil {
				return err
			}
			in.Schedule()
			inj = in
		}
		s, err := hcsdRemap(spec, src)
		if err != nil {
			return err
		}
		eng = pe.Runner(0)
		if resp, err = experiments.ReplayStream(eng, arr, s); err != nil {
			return err
		}
		powerOf = func(e float64) string { return experiments.WriteBreakdownBar(arr.Power(e)) }
		label = fmt.Sprintf("%s x%d %s (partitioned: %d LPs, %d sync windows)",
			level, n, model.Name, pe.NumLPs(), pe.Windows())
		instrumented = arr

	default:
		return fmt.Errorf("unknown system %q", system)
	}

	elapsed := eng.Now()
	fmt.Printf("workload: %s (%d requests, %.1f s simulated)\n", spec.Name, resp.Count(), elapsed/1000)
	fmt.Printf("system:   %s\n", label)
	fmt.Printf("response: %s\n", resp.Summarize())
	fmt.Printf("CDF:      %s\n", stats.FormatCDFRow(stats.ResponseBucketEdgesMs, resp.ResponseCDF()))
	fmt.Printf("power:    %s\n", powerOf(elapsed))
	if inj != nil {
		fmt.Printf("rebuild:  %d sectors copied over the links, member restored at %.1f ms (%d faults applied)\n",
			inj.CopiedSectors(), inj.RebuildDoneMs(), inj.Injected())
	}
	if jsonl != nil && jsonl.Err() != nil {
		return fmt.Errorf("trace output: %w", jsonl.Err())
	}
	if metrics {
		fmt.Println()
		snap := instrumented.Snapshot()
		if inj != nil {
			snap.Children = append(snap.Children, inj.Snapshot())
		}
		obs.WriteText(os.Stdout, snap)
	}
	return nil
}

// boundToMD ends the workload stream with an error at the first
// request that does not fit the workload's MD array — a disk index past
// its members, or a block past a member's capacity — so a foreign trace
// fails the run instead of panicking a drive or, after the HC-SD
// migration, aliasing into the next member's region.
func boundToMD(spec trace.WorkloadSpec, s trace.Stream) (trace.Stream, error) {
	model, err := experiments.MDDriveModel(spec)
	if err != nil {
		return nil, err
	}
	capacity, err := model.Sectors()
	if err != nil {
		return nil, err
	}
	return trace.BoundStream(s, spec.Disks, capacity), nil
}

// hcsdRemap layers the MD→HC-SD address migration onto the workload
// stream, once each request is known to fit its MD member.
func hcsdRemap(spec trace.WorkloadSpec, s trace.Stream) (trace.Stream, error) {
	offsets, err := experiments.HCSDOffsets(spec)
	if err != nil {
		return nil, err
	}
	bounded, err := boundToMD(spec, s)
	if err != nil {
		return nil, err
	}
	return trace.RemapStream(bounded, offsets), nil
}

func hcsdModel(rpm float64) disk.Model {
	model := disk.BarracudaES()
	if rpm > 0 {
		model = model.WithRPM(rpm)
	}
	return model
}

func mustModelName(spec trace.WorkloadSpec) string {
	m, err := experiments.MDDriveModel(spec)
	if err != nil {
		return "?"
	}
	return m.Name
}
