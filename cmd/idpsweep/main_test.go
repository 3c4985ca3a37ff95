package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweep runs idpsweep's design-point loop into a file and returns the
// CSV it wrote.
func sweep(t *testing.T, requests int, arms, rpms string, parallel, reps int) ([]byte, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(f, "Websearch", requests, 1, arms, rpms, parallel, reps, true); err != nil {
		return nil, err
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out, nil
}

// TestSweepGolden pins the sweep's CSV bytes, one replicate at -seed and
// three at derived seeds, on a grid reaching 10000 RPM — outside the
// what-if service's RPM grid, which the sweep must still run — and at
// one worker and eight.
func TestSweepGolden(t *testing.T) {
	for _, c := range []struct {
		reps   int
		golden string
	}{
		{1, "idpsweep-reps1.golden"},
		{3, "idpsweep-reps3.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			got, err := sweep(t, 1500, "1,2,4", "7200,5200,10000", par, c.reps)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("reps %d, parallel %d: CSV differs from %s:\n%s", c.reps, par, c.golden, got)
			}
		}
	}
}

// TestSweepRejects: bad inputs fail with one error naming the input.
func TestSweepRejects(t *testing.T) {
	for _, c := range []struct {
		requests   int
		arms, rpms string
		reps       int
		want       string
	}{
		{0, "1", "7200", 1, "-requests"},
		{100, "0", "7200", 1, "-actuators"},
		{100, "1", "999", 1, "-rpms"},
		{100, "1", "7200", 0, "-reps"},
		{100, "1", "2000000", 1, "RPM 2e+06 outside [1, 1e+06]"},
		{100, "1", "2000000", 2, "RPM 2e+06 outside [1, 1e+06]"},
	} {
		if _, err := sweep(t, c.requests, c.arms, c.rpms, 1, c.reps); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want one naming %q", c, err, c.want)
		}
	}
}
