package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the answer goldens under testdata/")

// TestAnswerGolden pins full answer bodies — summary, CI, CDF, power,
// arms, faults and the merged snapshot — to committed bytes at a fixed
// code version. A diff means the simulation or the replicate pooling
// changed what a query answers.
func TestAnswerGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CodeVersion: "golden-v1"})
	for name, q := range map[string]experiments.WhatIfQuery{
		"websearch-sa4-reps3-metrics": {
			Workload: "Websearch", Actuators: 4, Requests: 1500, Seed: 3, Reps: 3,
		},
		"financial-sa2-faults": {
			Workload: "Financial", Actuators: 2, Requests: 1500, Seed: 5,
			ArmFaults: []experiments.WhatIfArmFault{{AtFrac: 0.3, Arm: 0}, {AtFrac: 0.6, Arm: 1}},
		},
		"tpcc-sa2-rpm5200-x1.8-reps2": {
			Workload: "TPC-C", Actuators: 2, RPM: 5200, ArrivalScale: 1.8, Requests: 1500, Seed: 7, Reps: 2,
		},
	} {
		t.Run(name, func(t *testing.T) {
			query := Query{WhatIfQuery: q, IncludeMetrics: name == "websearch-sa4-reps3-metrics"}
			resp, body := postQuery(t, ts.URL, query)
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("answer differs from %s:\n got %s\nwant %s", path, body, want)
			}
		})
	}
}
