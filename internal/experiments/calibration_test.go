package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/simkit"
	"repro/internal/trace"
)

const fixtureDir = "../trace/testdata"

func newTestDisk(t *testing.T, eng simkit.Runner) *disk.Drive {
	t.Helper()
	d, err := disk.New(eng, disk.BarracudaES(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCalibrationDeterminism pins the issue's acceptance criterion in
// test form: for one vendored fixture per format, the rendered
// calibration table is byte-identical at Parallelism 1 vs 8.
func TestCalibrationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fixtures := []string{"sample.spc.csv", "sample.msr.csv", "sample.blkparse.txt"}
	render := func(path string, cfg Config) string {
		res, err := CalibrationStudy(path, cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		WriteCalibrationTable(&buf, res)
		return buf.String()
	}
	for _, fx := range fixtures {
		path := filepath.Join(fixtureDir, fx)
		base := render(path, Config{Seed: 1, Parallelism: 1})
		if base == "" || !strings.Contains(base, "KS distance") {
			t.Fatalf("%s: implausible table:\n%s", fx, base)
		}
		if got := render(path, Config{Seed: 1, Parallelism: 8}); got != base {
			t.Errorf("%s: table differs at Parallelism 8", fx)
		}
	}
}

// TestCalibrationResultShape checks the study's contents on one fixture:
// sniffed format, equal replay load, a fitted spec that validates, and a
// KS distance inside [0, 1].
func TestCalibrationResultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := CalibrationStudy(filepath.Join(fixtureDir, "sample.spc.csv"), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != trace.FormatSPC {
		t.Errorf("format = %q, want spc", res.Format)
	}
	if res.Real.Requests == 0 || res.Synth.Requests != res.Real.Requests {
		t.Errorf("request counts: real %d, synth %d", res.Real.Requests, res.Synth.Requests)
	}
	if err := res.Spec.Validate(); err != nil {
		t.Errorf("fitted spec invalid: %v", err)
	}
	if res.RealRun.Completed != uint64(res.Real.Requests) {
		t.Errorf("real replay completed %d of %d", res.RealRun.Completed, res.Real.Requests)
	}
	if res.SynthRun.Completed != uint64(res.Real.Requests) {
		t.Errorf("synthetic replay completed %d of %d", res.SynthRun.Completed, res.Real.Requests)
	}
	if res.KS < 0 || res.KS > 1 {
		t.Errorf("KS = %v outside [0,1]", res.KS)
	}
}

// TestReplayStreamPropagatesIngestError pins the satellite bugfix at the
// experiments boundary: a stream that fails mid-ingestion must surface
// its error from ReplayStream instead of silently truncating the replay
// (the pre-fix behavior was a panic in RemapStream and silence here).
func TestReplayStreamPropagatesIngestError(t *testing.T) {
	eng := simkit.New()
	d := newTestDisk(t, eng)
	in := "0.0 0 0 8 R\nnot a trace line\n"
	rd := trace.NewNativeReader(strings.NewReader(in), trace.ReaderOpts{})
	resp, err := ReplayStream(eng, d, rd)
	if err == nil {
		t.Fatal("ReplayStream returned nil error for a failing stream")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q lacks the offending line", err)
	}
	if resp == nil || resp.Count() != 1 {
		t.Errorf("expected the one good request to have replayed, got %v", resp)
	}
}

// TestReplayStreamUnroutableDisk covers the other half of the same fix:
// a request targeting a disk beyond the remap offset table is an error,
// not a panic.
func TestReplayStreamUnroutableDisk(t *testing.T) {
	eng := simkit.New()
	d := newTestDisk(t, eng)
	in := "0.0 0 0 8 R\n0.1 5 0 8 R\n"
	rd := trace.NewNativeReader(strings.NewReader(in), trace.ReaderOpts{})
	_, err := ReplayStream(eng, d, trace.RemapStream(rd, []int64{0, 1 << 20}))
	if err == nil {
		t.Fatal("ReplayStream accepted a request beyond the offset table")
	}
	if !strings.Contains(err.Error(), "disk 5") {
		t.Errorf("error %q does not name the unroutable disk", err)
	}
}
