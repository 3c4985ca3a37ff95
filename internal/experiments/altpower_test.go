package experiments

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestAltPowerComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := AltPower(trace.Websearch(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []Run{r.HCSD, r.DRPM, r.SA4Low} {
		if int(run.Completed) != testConfig().Requests {
			t.Fatalf("%s completed %d of %d", run.Label, run.Completed, testConfig().Requests)
		}
	}
	// Under sustained server load, DRPM barely saves power (the drive
	// rarely gets the idle windows it needs), while the reduced-RPM
	// parallel drive saves power structurally AND outperforms the
	// baseline — the paper's §5/§7.2 argument.
	if r.SA4Low.Power.Total() >= r.HCSD.Power.Total() {
		t.Errorf("SA(4)/5200 power %.1f not below HC-SD %.1f",
			r.SA4Low.Power.Total(), r.HCSD.Power.Total())
	}
	if r.SA4Low.Resp.Mean() >= r.HCSD.Resp.Mean() {
		t.Errorf("SA(4)/5200 mean %.2f not below HC-SD %.2f",
			r.SA4Low.Resp.Mean(), r.HCSD.Resp.Mean())
	}
	// And it must dominate DRPM on at least one axis while matching or
	// beating it on the other.
	perfBetter := r.SA4Low.Resp.Mean() <= r.DRPM.Resp.Mean()
	powerNotWorse := r.SA4Low.Power.Total() <= r.DRPM.Power.Total()*1.15
	if !perfBetter || !powerNotWorse {
		t.Errorf("SA(4)/5200 (mean %.2f, %.1f W) does not dominate DRPM (mean %.2f, %.1f W)",
			r.SA4Low.Resp.Mean(), r.SA4Low.Power.Total(),
			r.DRPM.Resp.Mean(), r.DRPM.Power.Total())
	}
}

// TestAltPowerDRPMWindow pins DRPM's measurement window to its own run.
// Under these server loads DRPM never gets an idle threshold's worth of
// quiet mid-run, so it answers every request exactly as the HC-SD does;
// until its last completion it is the same drive at the same speed, and
// must report the same window and the same power. Only after that does
// it walk down its ladder, and that walk is not part of the run.
func TestAltPowerDRPMWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := AltPower(trace.Financial(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.DRPM.Resp.Mean() != r.HCSD.Resp.Mean() || r.DRPM.Resp.Max() != r.HCSD.Resp.Max() {
		t.Fatalf("DRPM responses (mean %v, max %v) differ from HC-SD's (mean %v, max %v): not a full-speed run",
			r.DRPM.Resp.Mean(), r.DRPM.Resp.Max(), r.HCSD.Resp.Mean(), r.HCSD.Resp.Max())
	}
	if r.DRPM.ElapsedMs != r.HCSD.ElapsedMs {
		t.Errorf("DRPM measured over %v ms, HC-SD over %v ms", r.DRPM.ElapsedMs, r.HCSD.ElapsedMs)
	}
	if d := math.Abs(r.DRPM.Power.Total() - r.HCSD.Power.Total()); d > 1e-9 {
		t.Errorf("DRPM %v W, HC-SD %v W at full speed throughout", r.DRPM.Power.Total(), r.HCSD.Power.Total())
	}
}

func TestAltPowerValidation(t *testing.T) {
	if _, err := AltPower(trace.Websearch(), Config{}); err == nil {
		t.Fatalf("invalid config accepted")
	}
}
