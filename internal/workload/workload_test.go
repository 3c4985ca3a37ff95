package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

func TestIntensityValues(t *testing.T) {
	if Light.MeanInterArrivalMs() != 8 || Moderate.MeanInterArrivalMs() != 4 || Heavy.MeanInterArrivalMs() != 1 {
		t.Fatalf("intensity means wrong")
	}
	if Light.String() != "8 ms" || Heavy.String() != "1 ms" {
		t.Fatalf("intensity names wrong")
	}
	if len(Intensities()) != 3 {
		t.Fatalf("Intensities() = %v", Intensities())
	}
}

func TestUnknownIntensityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown intensity did not panic")
		}
	}()
	Intensity(99).MeanInterArrivalMs()
}

func TestPaperSpecMatchesSection73(t *testing.T) {
	s := Paper(Moderate, 1<<30)
	if s.Requests != 1000000 {
		t.Fatalf("Requests = %d, want 1e6", s.Requests)
	}
	if s.ReadFraction != 0.6 || s.SeqFraction != 0.2 {
		t.Fatalf("mix = %v/%v, want 0.6/0.2", s.ReadFraction, s.SeqFraction)
	}
	if s.MeanInterArrivalMs != 4 {
		t.Fatalf("mean inter-arrival %v", s.MeanInterArrivalMs)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("paper spec invalid: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	base := Paper(Light, 1<<30).WithRequests(10)
	mutations := []func(*Spec){
		func(s *Spec) { s.Requests = 0 },
		func(s *Spec) { s.MeanInterArrivalMs = 0 },
		func(s *Spec) { s.ReadFraction = 1.5 },
		func(s *Spec) { s.SeqFraction = -0.1 },
		func(s *Spec) { s.SizeChoices = nil },
		func(s *Spec) { s.SizeChoices = []int{0} },
		func(s *Spec) { s.CapacitySectors = 8 },
	}
	for i, mut := range mutations {
		s := base
		s.SizeChoices = append([]int(nil), base.SizeChoices...)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// collect drains a generator into a slice.
func collect(t *testing.T, spec Spec, seed int64) []trace.Request {
	t.Helper()
	g, err := NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := tracetest.Collect(g) // generators cannot fail
	return out
}

func TestGenerateDeterministicAndInRange(t *testing.T) {
	spec := Paper(Heavy, 1<<24).WithRequests(20000)
	a := collect(t, spec, 1)
	if !reflect.DeepEqual(a, collect(t, spec, 1)) {
		t.Fatalf("same seed differs")
	}
	if len(a) != spec.Requests {
		t.Fatalf("generated %d", len(a))
	}
	for i, r := range a {
		if i > 0 && r.ArrivalMs < a[i-1].ArrivalMs {
			t.Fatalf("request %d arrives before its predecessor", i)
		}
		if r.End() > spec.CapacitySectors || r.LBA < 0 {
			t.Fatalf("request %d out of range: %+v", i, r)
		}
		if r.Disk != 0 {
			t.Fatalf("request %d targets disk %d", i, r.Disk)
		}
	}
}

func TestGenerateStatisticsMatchSpec(t *testing.T) {
	spec := Paper(Moderate, 1<<26).WithRequests(50000)
	tr := collect(t, spec, 7)
	st, err := trace.AnalyzeStream(tracetest.Stream(tr))
	if err != nil {
		t.Fatal(err)
	}
	if rf := st.ReadFraction; math.Abs(rf-0.6) > 0.01 {
		t.Fatalf("read fraction %v, want ~0.6", rf)
	}
	if m := st.MeanInterArrivalMs; math.Abs(m-4) > 0.15 {
		t.Fatalf("mean inter-arrival %v, want ~4", m)
	}
	// Sequentiality: ~20% of requests continue the previous one.
	seq := 0
	var prevEnd int64 = -1
	for _, r := range tr {
		if r.LBA == prevEnd {
			seq++
		}
		prevEnd = r.End()
	}
	frac := float64(seq) / float64(len(tr))
	if math.Abs(frac-0.2) > 0.02 {
		t.Fatalf("sequential fraction %v, want ~0.2", frac)
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	spec := Paper(Light, 4)
	if _, err := NewGenerator(spec, 1); err == nil {
		t.Fatalf("NewGenerator accepted invalid spec")
	}
}

// BenchmarkGeneratorStream measures per-request streaming synthesis.
func BenchmarkGeneratorStream(b *testing.B) {
	b.ReportAllocs()
	spec := Paper(Heavy, 1<<30).WithRequests(1 << 30)
	g, err := NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator exhausted")
		}
	}
}

// TestGeneratorLen checks that the generator's length counts down to 0
// in step with Next.
func TestGeneratorLen(t *testing.T) {
	spec := Paper(Moderate, 1<<24).WithRequests(300)
	g, err := NewGenerator(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Requests; i++ {
		if got := trace.Len(g); got != spec.Requests-i {
			t.Fatalf("Len = %d before request %d, want %d", got, i, spec.Requests-i)
		}
		if _, ok := g.Next(); !ok {
			t.Fatalf("generator ended at request %d", i)
		}
	}
	if _, ok := g.Next(); ok || trace.Len(g) != 0 {
		t.Fatalf("Len = %d past exhaustion, want 0", trace.Len(g))
	}
}
