package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json at the default scale")

// tinyScale runs every workload in a fraction of a second.
func tinyScale() scale {
	return scale{
		Workers:           2,
		FigsRequests:      300,
		SatRequests:       500,
		RAIDRequests:      200,
		LPRAIDRequests:    200,
		LPRAIDDrives:      4,
		ServeQueries:      20,
		ServeHitConfigs:   4,
		ServeHitRequests:  300,
		ServeMissRequests: 300,
		IngestRequests:    2000,
		Setups:            2,
	}
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, idpperf runs %v", got, want)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// checkMetrics asserts a result carries exactly the declared metrics.
func checkMetrics(t *testing.T, what string, res *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced:
// every declared metric is emitted with its unit, nothing fails, and
// each traced pass reproduces its untraced pass's digest (a mismatch
// counts as a failure).
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(options{workload: name, seed: 3, seconds: 0, traced: traced,
					workdir: t.TempDir(), scale: tinyScale(), log: io.Discard})
				if err != nil {
					t.Fatalf("traced=%t: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%t: correct=%t failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				if traced {
					checkMetrics(t, name+" traced", res, layer)
				} else {
					checkMetrics(t, name, res, e2e)
					for n, m := range res.Metrics {
						if m.Value == 0 {
							t.Errorf("end-to-end metric %s is 0", n)
						}
					}
				}
			}
		})
	}
}

// TestWrappersPreserveReplay replays one stream through each device
// shape plain and wrapped: the traced scheduler, device and stream must
// leave every response time unchanged.
func TestWrappersPreserveReplay(t *testing.T) {
	spec := trace.Websearch().WithRequests(3000)
	offsets, err := experiments.HCSDOffsets(spec)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func(s simkit.Scheduler, t *tracer) (device.Device, error){
		"disk": func(s simkit.Scheduler, _ *tracer) (device.Device, error) {
			return disk.New(s, disk.BarracudaES(), disk.Options{})
		},
		"core": func(s simkit.Scheduler, _ *tracer) (device.Device, error) {
			return core.New(s, disk.BarracudaES(), core.Config{Actuators: 4})
		},
		"raid0": func(s simkit.Scheduler, tr *tracer) (device.Device, error) {
			members := make([]device.Device, 4)
			for i := range members {
				d, err := core.New(s, disk.BarracudaES(), core.Config{Actuators: 2})
				if err != nil {
					return nil, err
				}
				members[i] = d
				if tr != nil {
					members[i] = &devWrap{inner: d, t: tr, submit: kCoreSubmit, done: kRaidEnd}
				}
			}
			layout, err := raid.NewRAID0(4, members[0].Capacity(), experiments.StripeUnitSectors)
			if err != nil {
				return nil, err
			}
			return raid.NewArray(layout, members)
		},
	}
	for name, mk := range shapes {
		replay := func(traced bool) *stats.Sample {
			g, err := trace.NewGenerator(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			s := trace.RemapStream(g, offsets)
			eng := simkit.New()
			var run simkit.Runner = eng
			var sched simkit.Scheduler = eng
			var tr *tracer
			if traced {
				tr = newTracer(name, true)
				run = traceRunner(eng, tr, kRun)
				sched = &schedWrap{inner: eng, t: tr, ev: kCoreEvent}
				s = &streamWrap{inner: s, t: tr, k: kGen}
			}
			d, err := mk(sched, tr)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				d = top(d, tr, kRaidSubmit)
			}
			resp, err := experiments.ReplayStream(run, d, s)
			if err != nil {
				t.Fatal(err)
			}
			if traced && (tr.agg[kRun][kNone].n != 1 || len(tr.recs) == 0) {
				t.Errorf("%s: traced replay recorded no spans", name)
			}
			return resp
		}
		plain, wrapped := replay(false), replay(true)
		if plain.Count() != spec.Requests || plain.Summarize() != wrapped.Summarize() ||
			!slices.Equal(plain.ResponseCDF(), wrapped.ResponseCDF()) {
			t.Errorf("%s: wrapped replay %v, plain %v", name, wrapped.Summarize(), plain.Summarize())
		}
	}
}

// TestGoldenUpdate regenerates the golden digests: pass 0 of every
// workload at seed 1 and the default scale. Every benchmark run at that
// seed and scale checks them.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/golden.json")
	}
	golden := map[string]string{}
	for _, name := range workloadNames() {
		w := workloads[name](defaultScale(), t.TempDir())
		if err := w.setup(1); err != nil {
			t.Fatal(err)
		}
		out, err := w.pass(1, nil)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name] = out.digest()
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
