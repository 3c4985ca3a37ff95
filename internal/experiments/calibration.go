package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"repro/internal/disk"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CalibrationResult measures how much behavioral fidelity the
// synthesizer's statistical match buys on a real trace: the ingested
// trace and a synthetic workload fitted to its one-pass profile replay
// through the same HC-SD configuration, and the result reports both the
// statistical deltas and the response-time distribution distance.
type CalibrationResult struct {
	Source string       // trace file path
	Format trace.Format // sniffed on-disk format

	Real  trace.Stats        // profiled from the ingested trace
	Synth trace.Stats        // measured over the fitted synthetic stream
	Spec  trace.WorkloadSpec // the fitted synthesizer parameters

	RealRun  Run // the ingested trace replayed on the HC-SD
	SynthRun Run // the fitted synthetic replayed on the same drive

	// KS is the two-sample Kolmogorov–Smirnov distance between the two
	// replays' response-time distributions (0 = identical, 1 = disjoint).
	KS float64
}

// CalibrationStudy ingests the trace at path (format sniffed), fits
// synthesizer parameters to its streaming profile, replays both the
// real trace and the fitted synthetic through the same HC-SD drive, and
// reports the divergence. cfg.Requests is ignored — the trace's own
// length rules both replays, so real and synthetic see equal load.
// Both replays run as fleet jobs: byte-identical at any cfg.Parallelism.
func CalibrationStudy(path string, cfg Config) (*CalibrationResult, error) {
	cfg.Requests = 1 // unused below; keep Validate happy on zero configs
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Pass 1: one streaming read for the profile (O(1) memory).
	rd, err := trace.OpenFile(path, trace.ReaderOpts{})
	if err != nil {
		return nil, err
	}
	format := rd.Format()
	profile, err := trace.ProfileStream(rd)
	rd.Close()
	if err != nil {
		return nil, err
	}

	spec, err := trace.FitWorkload(filepath.Base(path), profile)
	if err != nil {
		return nil, err
	}

	// The fitted synthetic's realized statistics, measured the same way
	// the real trace was — divergence rows compare like with like.
	g, err := trace.NewGenerator(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	synthStats, err := trace.AnalyzeStream(g)
	if err != nil {
		return nil, err
	}

	// Both replays migrate onto one HC-SD with uniform per-disk slots
	// sized to whichever address range is larger — the slot layout is
	// shared, so a seek distance means the same thing in both runs.
	slot := spec.DiskSectors()
	for _, e := range profile.DiskMaxEnd {
		if e > slot {
			slot = e
		}
	}
	capacity, err := disk.BarracudaES().Sectors()
	if err != nil {
		return nil, err
	}
	if need := slot * int64(spec.Disks); need > capacity {
		return nil, fmt.Errorf("experiments: calibration: %s spans %d sectors over %d disks (%.1f GB), beyond the HC-SD's %.1f GB",
			path, need, spec.Disks, float64(need)*512/1e9, float64(capacity)*512/1e9)
	}
	offsets := make([]int64, spec.Disks)
	for d := range offsets {
		offsets[d] = int64(d) * slot
	}

	replayJob := func(label string, open func() (trace.Stream, func(), error)) fleet.Job[Run] {
		return fleet.Job[Run]{Name: "calibration/" + label, Run: func(context.Context, int64) (Run, error) {
			s, done, err := open()
			if err != nil {
				return Run{}, err
			}
			if done != nil {
				defer done()
			}
			r, err := runDrive(context.Background(), disk.BarracudaES(),
				disk.Options{Obs: obs.Options{Name: "calibration/" + label}},
				label, trace.RemapStream(s, offsets), cfg.Observe, nil)
			if err != nil {
				return Run{}, err
			}
			return *r, nil
		}}
	}
	jobs := []fleet.Job[Run]{
		// Each job re-opens its own stream: jobs may run on different
		// workers, and a private reader per job keeps the fan-out
		// deterministic and the memory O(1).
		replayJob("real", func() (trace.Stream, func(), error) {
			r, err := trace.OpenFile(path, trace.ReaderOpts{})
			if err != nil {
				return nil, nil, err
			}
			return r, func() { r.Close() }, nil
		}),
		replayJob("fitted", func() (trace.Stream, func(), error) {
			g, err := trace.NewGenerator(spec, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			return g, nil, nil
		}),
	}
	runs, err := fleet.Run(jobs, cfg.fleetOptions())
	if err != nil {
		return nil, err
	}

	return &CalibrationResult{
		Source:   path,
		Format:   format,
		Real:     profile.Stats,
		Synth:    synthStats,
		Spec:     spec,
		RealRun:  runs[0],
		SynthRun: runs[1],
		KS:       stats.KolmogorovDistance(runs[0].Resp, runs[1].Resp),
	}, nil
}

// WriteCalibrationTable renders the divergence between a real trace and
// its fitted synthetic: the statistical deltas the fit controls, both
// replays' response summaries and CDFs, and the KS distance.
func WriteCalibrationTable(w io.Writer, r *CalibrationResult) {
	fmt.Fprintf(w, "calibration: %s (%s format, %d requests, %d disks)\n",
		r.Source, r.Format, r.Real.Requests, r.Real.Disks)
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "statistic", "real", "fitted", "delta")
	row := func(name string, a, b float64) {
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %12.4f\n", name, a, b, b-a)
	}
	row("mean inter-arrival ms", r.Real.MeanInterArrivalMs, r.Synth.MeanInterArrivalMs)
	row("inter-arrival CV^2", r.Real.CV2InterArrival, r.Synth.CV2InterArrival)
	row("read fraction", r.Real.ReadFraction, r.Synth.ReadFraction)
	row("mean size sectors", r.Real.MeanSizeSectors, r.Synth.MeanSizeSectors)
	row("sequential fraction", r.Real.SeqFraction, r.Synth.SeqFraction)
	row("footprint GB", float64(r.Real.FootprintSectors)*512/1e9,
		float64(r.Synth.FootprintSectors)*512/1e9)
	fmt.Fprintf(w, "replay (real):   %s\n", r.RealRun.Resp.Summarize())
	fmt.Fprintf(w, "replay (fitted): %s\n", r.SynthRun.Resp.Summarize())
	WriteCDFTable(w, "response CDF", []Run{r.RealRun, r.SynthRun})
	fmt.Fprintf(w, "KS distance: %.4f (%s)\n", r.KS, ksVerdict(r.KS))
}

// ksVerdict grades a KS distance for the table's one-word judgment.
func ksVerdict(d float64) string {
	switch {
	case math.IsNaN(d):
		return "undefined"
	case d <= 0.1:
		return "close"
	case d <= 0.3:
		return "fair"
	default:
		return "divergent"
	}
}
