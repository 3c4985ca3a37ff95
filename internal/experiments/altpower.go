package experiments

import (
	"repro/internal/disk"
	"repro/internal/drpm"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AltPowerResult compares the two disk-level power knobs on a workload's
// HC-SD trace: the related-work approach (DRPM — modulate the spindle)
// against the paper's approach (intra-disk parallelism — keep the
// spindle, lower the RPM permanently, add actuators).
type AltPowerResult struct {
	Workload string
	HCSD     Run // conventional 7200 RPM baseline
	DRPM     Run // dynamic-RPM drive
	SA4Low   Run // SA(4) at a permanently reduced 5200 RPM
}

// AltPower runs the comparison. The paper's argument (§5, §7.2) is that
// parallel hardware buys back the performance a slow spindle costs,
// while DRPM must pick between latency (staying slow) and power (spinning
// back up) under sustained server load.
func AltPower(spec trace.WorkloadSpec, cfg Config) (*AltPowerResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := &AltPowerResult{Workload: spec.Name}

	// Baseline: the plain HC-SD.
	bs, err := hcsdStream(spec, cfg)
	if err != nil {
		return nil, err
	}
	base, err := runHCSD("HC-SD", bs, disk.BarracudaES(), disk.Options{})
	if err != nil {
		return nil, err
	}
	out.HCSD = *base

	// DRPM drive with the classic ladder.
	eng := simkit.New()
	dd, err := drpm.New(eng, disk.BarracudaES(), drpm.Config{
		Levels: []float64{7200, 6200, 5200, 4200},
	})
	if err != nil {
		return nil, err
	}
	ds, err := hcsdStream(spec, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := ReplayStream(eng, dd, ds)
	if err != nil {
		return nil, err
	}
	out.DRPM = Run{
		Label:     "DRPM",
		Resp:      resp,
		RotLat:    &stats.Sample{},
		Power:     dd.Power(eng.Now()),
		ElapsedMs: eng.Now(),
		Completed: uint64(resp.Count()),
	}

	// The paper's answer: SA(4) at a permanently reduced RPM.
	ss, err := hcsdStream(spec, cfg)
	if err != nil {
		return nil, err
	}
	sa, err := saRunOnStream(ss, 4, 5200, cfg)
	if err != nil {
		return nil, err
	}
	out.SA4Low = *sa
	return out, nil
}
