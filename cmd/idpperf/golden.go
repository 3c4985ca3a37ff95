package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares pass 0's digest with the committed one. Golden
// digests pin seed 1 at the default scale (the worker count does not
// change outputs); other runs only print their digests, so two builds
// can be compared by eye.
func checkGolden(o options, digest string) (bool, string) {
	def := defaultScale()
	sc := o.scale
	def.Workers, sc.Workers = 0, 0
	if o.seed != 1 || sc != def {
		return true, "(no golden digest for this seed and scale)"
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return false, fmt.Sprintf("(golden digests unreadable: %v)", err)
	}
	switch want, ok := golden[o.workload]; {
	case !ok:
		return false, "(NO GOLDEN DIGEST for this workload)"
	case want != digest:
		return false, "(GOLDEN MISMATCH: want " + want + ")"
	}
	return true, "(matches golden)"
}
