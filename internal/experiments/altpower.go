package experiments

import (
	"context"

	"repro/internal/device"
	"repro/internal/disk"
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
	// Baseline: the plain HC-SD (validating cfg).
	base, err := unobservedRun(spec, cfg, disk.BarracudaES(), disk.Options{}, "HC-SD")
	if err != nil {
		return nil, err
	}
	out := &AltPowerResult{Workload: spec.Name, HCSD: base}

	// DRPM drive with the classic ladder.
	eng := simkit.New()
	dd, err := disk.NewDRPM(eng, disk.BarracudaES(), disk.DRPMConfig{
		Levels: []float64{7200, 6200, 5200, 4200},
	})
	if err != nil {
		return nil, err
	}
	ds, err := hcsdStream(spec, cfg)
	if err != nil {
		return nil, err
	}
	// The run ends at the last completion, as the other rows' runs do;
	// the engine's clock runs on through the ladder walk that follows.
	last := &lastCompletion{Device: dd}
	resp, err := ReplayStream(eng, last, ds)
	if err != nil {
		return nil, err
	}
	out.DRPM = Run{
		Label:     "DRPM",
		Resp:      resp,
		RotLat:    &stats.Sample{},
		Power:     dd.Power(last.at),
		ElapsedMs: last.at,
		Completed: uint64(resp.Count()),
	}

	// The paper's answer: SA(4) at a permanently reduced RPM.
	sa, err := saJob(spec, cfg, 4, 5200).Run(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	out.SA4Low = sa
	return out, nil
}

// lastCompletion wraps a device to note when its last request completed.
type lastCompletion struct {
	device.Device
	at float64
}

func (l *lastCompletion) Submit(r trace.Request, done device.Done) {
	l.Device.Submit(r, func(at float64) {
		l.at = at
		done(at)
	})
}
