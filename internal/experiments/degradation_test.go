package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// degradationAt renders the full degradation study for one workload at
// the given fleet parallelism: the §8 table plus, when observing, every
// run's JSONL span trace and statistics snapshot (which include the
// fault injector's own spans and counters).
func degradationAt(t *testing.T, parallelism int, ob Observe) []byte {
	t.Helper()
	cfg := Config{Requests: 1500, Seed: 11, Parallelism: parallelism, Observe: ob}
	dr, err := DegradationStudy(trace.TPCC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteDegradationTable(&buf, dr)
	for _, r := range dr.Runs {
		if r.Events != nil {
			if err := obs.WriteJSONL(&buf, r.Events); err != nil {
				t.Fatal(err)
			}
		}
		if r.Snap != nil {
			obs.WriteText(&buf, *r.Snap)
		}
	}
	return buf.Bytes()
}

// TestDegradationStudyParallelismInvariant is the study's determinism
// gate: tables, traces, and snapshots must be byte-identical at fleet
// Parallelism 1 and 8, because every random draw comes from cfg.Seed
// rather than from the fleet's per-job seeds or ambient state.
func TestDegradationStudyParallelismInvariant(t *testing.T) {
	ob := Observe{Trace: true, Metrics: true}
	serial := degradationAt(t, 1, ob)
	parallel := degradationAt(t, 8, ob)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("degradation study differs between Parallelism 1 and 8 (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}

// TestDegradationScenariosTakeEffect checks the study actually degrades
// things: the SMART loop and the direct faults deconfigure arms, the
// sector errors land in the surviving member's defect table, and every
// rebuild completes under foreground load with the full member extent
// copied.
func TestDegradationScenariosTakeEffect(t *testing.T) {
	cfg := Config{Requests: 1500, Seed: 11, Parallelism: 4}
	dr, err := DegradationStudy(trace.TPCC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Runs) != 3+len(degradationDepths) {
		t.Fatalf("got %d runs, want %d", len(dr.Runs), 3+len(degradationDepths))
	}
	healthy, smart, armed := dr.Runs[0], dr.Runs[1], dr.Runs[2]
	if healthy.HealthyArms != degradationArms {
		t.Fatalf("healthy scenario lost arms: %d/%d", healthy.HealthyArms, degradationArms)
	}
	if smart.HealthyArms != degradationArms-1 {
		t.Fatalf("SMART sentry deconfigured %d arms, want exactly 1",
			degradationArms-smart.HealthyArms)
	}
	if armed.HealthyArms != degradationArms-2 {
		t.Fatalf("direct faults left %d arms, want %d", armed.HealthyArms, degradationArms-2)
	}
	if healthy.Resp.Mean() >= armed.Resp.Mean() {
		t.Fatalf("losing two arms did not hurt: healthy %.3fms vs degraded %.3fms",
			healthy.Resp.Mean(), armed.Resp.Mean())
	}
	for _, r := range dr.Runs[3:] {
		if r.Reallocated == 0 {
			t.Fatalf("%s: no sector errors landed in the defect table", r.Label)
		}
		if r.RebuildDoneMs <= 0 {
			t.Fatalf("%s: rebuild never completed", r.Label)
		}
		if r.CopiedSectors != dr.Runs[3].CopiedSectors {
			t.Fatalf("%s copied %d sectors, depth sweep should copy identical extents (%d)",
				r.Label, r.CopiedSectors, dr.Runs[3].CopiedSectors)
		}
		if r.Completed != uint64(cfg.Requests) {
			t.Fatalf("%s completed %d of %d foreground requests under rebuild",
				r.Label, r.Completed, cfg.Requests)
		}
	}
}

// TestRebuildUnderLoadDeterministic is the end-to-end satellite: a
// member death plus rebuild racing a foreground workload must yield the
// identical copied-sector count, rebuild completion time, and obs
// snapshot for the same seed regardless of fleet parallelism.
func TestRebuildUnderLoadDeterministic(t *testing.T) {
	run := func(parallelism int) DegradationRun {
		cfg := Config{Requests: 1200, Seed: 23, Parallelism: parallelism,
			Observe: Observe{Metrics: true}}
		dr, err := DegradationStudy(trace.Websearch(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dr.Runs[len(dr.Runs)-1] // rebuild(d=16)
	}
	a, b := run(1), run(8)
	if a.CopiedSectors != b.CopiedSectors || a.CopiedSectors == 0 {
		t.Fatalf("copied sectors differ or zero: %d vs %d", a.CopiedSectors, b.CopiedSectors)
	}
	if a.RebuildDoneMs != b.RebuildDoneMs || a.RebuildDoneMs <= 0 {
		t.Fatalf("rebuild completion differs or never happened: %v vs %v",
			a.RebuildDoneMs, b.RebuildDoneMs)
	}
	var sa, sb bytes.Buffer
	obs.WriteText(&sa, *a.Snap)
	obs.WriteText(&sb, *b.Snap)
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("obs snapshots differ between Parallelism 1 and 8:\n%s\n---\n%s",
			sa.String(), sb.String())
	}
}
