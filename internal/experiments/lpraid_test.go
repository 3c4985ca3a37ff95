package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestLPRAIDWorkerIdentity: the genuinely multi-LP scenario produces
// identical results at one worker and many — the window protocol, not
// scheduling luck, fixes the outcome. Trace and Metrics are on so the
// comparison covers span events and snapshots, not just samples. The
// run is the degraded 64-drive array: the rebuild's survivor reads fill
// windows with more LPs than run inline, so at four workers those
// windows go through the pool and members run on different goroutines,
// which is what -race needs to see.
func TestLPRAIDWorkerIdentity(t *testing.T) {
	run := func(workers int) *LPRAIDResult {
		cfg := Config{Requests: 3000, Seed: 1, Observe: Observe{Trace: true, Metrics: true}}
		r, pe, err := lpraid(cfg, LPRAIDOpts{Workers: workers, Degraded: true})
		if err != nil {
			t.Fatal(err)
		}
		if pe.WideWindows() == 0 {
			t.Fatalf("%d workers: no window was wide enough for the pool", workers)
		}
		return r
	}
	one, many := run(1), run(4)
	if one.Windows != many.Windows {
		t.Fatalf("windows %d vs %d", one.Windows, many.Windows)
	}
	if one.Windows < 2 {
		t.Fatalf("degenerate run: %d windows", one.Windows)
	}
	aj, err := obs.MarshalSnapshot(*one.Snap)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := obs.MarshalSnapshot(*many.Snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snapshot bytes diverge across worker counts")
	}
	if !reflect.DeepEqual(one.Resp, many.Resp) {
		t.Fatalf("response samples diverge across worker counts")
	}
	if !reflect.DeepEqual(one.Events, many.Events) {
		t.Fatalf("span events diverge across worker counts")
	}
}
