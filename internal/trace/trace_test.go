package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRequestValidate(t *testing.T) {
	good := Request{ArrivalMs: 1, Disk: 0, LBA: 10, Sectors: 8, Read: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []Request{
		{ArrivalMs: -1, Sectors: 8},
		{Disk: -1, Sectors: 8},
		{LBA: -1, Sectors: 8},
		{Sectors: 0},
		{Sectors: -8},
		{ArrivalMs: math.NaN(), Sectors: 8},
		{ArrivalMs: math.Inf(1), Sectors: 8},
		{ArrivalMs: math.Inf(-1), Sectors: 8},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("invalid request accepted: %+v", r)
		}
	}
}

func TestRequestEnd(t *testing.T) {
	r := Request{LBA: 100, Sectors: 8}
	if r.End() != 108 {
		t.Fatalf("End = %d, want 108", r.End())
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0.5 0 100 8 R\n  \n# trailer\n1.0 1 200 16 w\n"
	tr, err := drain(NewNativeReader(strings.NewReader(in), ReaderOpts{}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(tr) != 2 {
		t.Fatalf("parsed %d requests, want 2", len(tr))
	}
	if !tr[0].Read || tr[1].Read {
		t.Fatalf("ops parsed wrong: %+v", tr)
	}
}

func TestReadRejectsMalformedLines(t *testing.T) {
	cases := []string{
		"0.5 0 100 8",         // too few fields
		"0.5 0 100 8 R extra", // too many fields
		"x 0 100 8 R",         // bad arrival
		"0.5 x 100 8 R",       // bad disk
		"0.5 0 x 8 R",         // bad lba
		"0.5 0 100 x R",       // bad sectors
		"0.5 0 100 8 Q",       // bad op
		"-1 0 100 8 R",        // negative arrival
		"0.5 0 100 0 R",       // zero length
	}
	for _, line := range cases {
		if _, err := drain(NewNativeReader(strings.NewReader(line+"\n"), ReaderOpts{})); err == nil {
			t.Fatalf("native reader accepted malformed line %q", line)
		}
	}
}

func TestWorkloadSpecsValid(t *testing.T) {
	for _, w := range Workloads() {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", w.Name, err)
		}
	}
}

func TestWorkloadTable2Configs(t *testing.T) {
	cases := []struct {
		spec  WorkloadSpec
		disks int
		rpm   float64
	}{
		{Financial(), 24, 10000},
		{Websearch(), 6, 10000},
		{TPCC(), 4, 10000},
		{TPCH(), 15, 7200},
	}
	for _, tc := range cases {
		if tc.spec.Disks != tc.disks || tc.spec.RPM != tc.rpm {
			t.Errorf("%s: disks=%d rpm=%v, want %d/%v",
				tc.spec.Name, tc.spec.Disks, tc.spec.RPM, tc.disks, tc.rpm)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("TPC-H")
	if err != nil || w.Name != "TPC-H" {
		t.Fatalf("WorkloadByName(TPC-H) = %v, %v", w.Name, err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatalf("WorkloadByName accepted unknown name")
	}
}

// generate drains a fresh generator for (spec, seed).
func generate(t *testing.T, spec WorkloadSpec, seed int64) []Request {
	t.Helper()
	g, err := NewGenerator(spec, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	tr, _ := drain(g)
	if _, ok := g.Next(); ok {
		t.Fatalf("%s: Next yielded past exhaustion", spec.Name)
	}
	return tr
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Websearch().WithRequests(2000)
	a := generate(t, spec, 42)
	if !reflect.DeepEqual(a, generate(t, spec, 42)) {
		t.Fatalf("same seed produced different traces")
	}
	if reflect.DeepEqual(a, generate(t, spec, 43)) {
		t.Fatalf("different seeds produced identical traces")
	}
}

func TestGenerateMatchesSpecStatistics(t *testing.T) {
	for _, spec := range Workloads() {
		spec := spec.WithRequests(20000)
		tr := generate(t, spec, 1)
		if len(tr) != spec.Requests {
			t.Fatalf("%s: generated %d requests, want %d", spec.Name, len(tr), spec.Requests)
		}
		reads := 0
		for i, r := range tr {
			if i > 0 && r.ArrivalMs < tr[i-1].ArrivalMs {
				t.Fatalf("%s: request %d arrives before its predecessor", spec.Name, i)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s: request %d invalid: %v", spec.Name, i, err)
			}
			if r.Disk >= spec.Disks {
				t.Fatalf("%s: request %d targets disk %d beyond array of %d", spec.Name, i, r.Disk, spec.Disks)
			}
			if r.End() > spec.DiskSectors() {
				t.Fatalf("%s: request %d beyond disk capacity", spec.Name, i)
			}
			if r.Read {
				reads++
			}
		}
		if rf := float64(reads) / float64(len(tr)); math.Abs(rf-spec.ReadFraction) > 0.02 {
			t.Errorf("%s: read fraction %v, want ~%v", spec.Name, rf, spec.ReadFraction)
		}
		// Bursts shorten some gaps but the mean stays within ~35%.
		m := (tr[len(tr)-1].ArrivalMs - tr[0].ArrivalMs) / float64(len(tr)-1)
		if m < spec.MeanInterArrivalMs*0.5 || m > spec.MeanInterArrivalMs*1.1 {
			t.Errorf("%s: mean inter-arrival %v, spec %v", spec.Name, m, spec.MeanInterArrivalMs)
		}
	}
}

func TestGenerateSequentialityOrdering(t *testing.T) {
	seqRuns := func(spec WorkloadSpec) float64 {
		tr := generate(t, spec.WithRequests(20000), 7)
		last := map[int]int64{}
		seq := 0
		for _, r := range tr {
			if e, ok := last[r.Disk]; ok && e == r.LBA {
				seq++
			}
			last[r.Disk] = r.End()
		}
		return float64(seq) / float64(len(tr))
	}
	tpch := seqRuns(TPCH())
	web := seqRuns(Websearch())
	if tpch <= web {
		t.Fatalf("TPC-H sequentiality %v not above Websearch %v", tpch, web)
	}
	if tpch < 0.5 {
		t.Fatalf("TPC-H sequentiality %v, want >= 0.5", tpch)
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	spec := Websearch()
	spec.Requests = 0
	if _, err := NewGenerator(spec, 1); err == nil {
		t.Fatalf("NewGenerator accepted invalid spec")
	}
	// Footprint too small for the largest transfer.
	spec = Websearch().WithRequests(10)
	spec.DiskCapacityGB = 0.00001
	if _, err := NewGenerator(spec, 1); err == nil {
		t.Fatalf("NewGenerator accepted microscopic footprint")
	}
}
