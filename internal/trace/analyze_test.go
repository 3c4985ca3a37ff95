package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAnalyzePoissonCV2NearOne(t *testing.T) {
	g, err := NewGenerator(Websearch().WithRequests(20000), 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := AnalyzeStream(g)
	if err != nil {
		t.Fatal(err)
	}
	// Bursty arrivals push CV^2 at or above the Poisson value of 1.
	if s.CV2InterArrival < 0.8 {
		t.Fatalf("CV2 %v, want near/above 1 for a (modulated) Poisson stream", s.CV2InterArrival)
	}
}

func TestAnalyzeMatchesWorkloadSpecs(t *testing.T) {
	for _, spec := range Workloads() {
		g, err := NewGenerator(spec.WithRequests(20000), 3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := AnalyzeStream(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.ReadFraction-spec.ReadFraction) > 0.02 {
			t.Errorf("%s: analyzed read fraction %v vs spec %v",
				spec.Name, s.ReadFraction, spec.ReadFraction)
		}
		if s.Disks != spec.Disks {
			t.Errorf("%s: analyzed %d disks vs spec %d", spec.Name, s.Disks, spec.Disks)
		}
		if s.SeqFraction < spec.SeqRunProb*0.5 {
			t.Errorf("%s: sequential fraction %v far below spec %v",
				spec.Name, s.SeqFraction, spec.SeqRunProb)
		}
		// Hot-disk skew must show up as load imbalance.
		if spec.HotDisks > 0 && s.DiskLoadCV < 0.5 {
			t.Errorf("%s: disk load CV %v despite hot-disk skew", spec.Name, s.DiskLoadCV)
		}
	}
}

func TestWriteStats(t *testing.T) {
	g, err := NewGenerator(TPCH().WithRequests(1000), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := AnalyzeStream(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteStats(&buf, "tpch", s)
	out := buf.String()
	for _, want := range []string{"tpch:", "requests", "read fraction", "footprint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteStats output missing %q:\n%s", want, out)
		}
	}
}

// TestInterArrivalPercentiles checks the profile's gap percentiles on
// known gaps of 1, 2 and 4 ms, to the histogram's ~9% resolution, and
// its rejection of a single request and of an out-of-range percentile.
func TestInterArrivalPercentiles(t *testing.T) {
	p := NewProfiler()
	for _, at := range []float64{0, 1, 3, 7} {
		p.Add(Request{ArrivalMs: at, Sectors: 1})
	}
	prof := p.Finish()
	for _, c := range []struct{ pct, want float64 }{{0, 1}, {50, 2}, {100, 4}} {
		got, err := prof.GapPercentile(c.pct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.09*c.want {
			t.Errorf("p%v = %v, want ~%v", c.pct, got, c.want)
		}
	}
	if _, err := prof.GapPercentile(150); err == nil {
		t.Fatalf("out-of-range percentile accepted")
	}
	single := NewProfiler()
	single.Add(Request{Sectors: 1})
	if _, err := single.Finish().GapPercentile(50); err == nil {
		t.Fatalf("single-request profile accepted")
	}
}
