package mech

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func barracudaSeek() SeekSpec {
	return SeekSpec{SingleCylMs: 0.8, AvgMs: 8.5, FullStrokeMs: 17.0, MaxCyl: 150000}
}

func mustCurve(t testing.TB, s SeekSpec) *SeekCurve {
	t.Helper()
	c, err := NewSeekCurve(s)
	if err != nil {
		t.Fatalf("NewSeekCurve(%+v): %v", s, err)
	}
	return c
}

func TestSeekSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec SeekSpec
	}{
		{"tiny maxcyl", SeekSpec{SingleCylMs: 1, AvgMs: 5, FullStrokeMs: 10, MaxCyl: 1}},
		{"zero single", SeekSpec{SingleCylMs: 0, AvgMs: 5, FullStrokeMs: 10, MaxCyl: 100}},
		{"avg below single", SeekSpec{SingleCylMs: 5, AvgMs: 4, FullStrokeMs: 10, MaxCyl: 100}},
		{"full below avg", SeekSpec{SingleCylMs: 1, AvgMs: 5, FullStrokeMs: 5, MaxCyl: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSeekCurve(tc.spec); err == nil {
				t.Fatalf("accepted invalid spec %+v", tc.spec)
			}
		})
	}
}

func TestSeekCurveHitsDatasheetPoints(t *testing.T) {
	spec := barracudaSeek()
	c := mustCurve(t, spec)
	if got := c.Time(1); math.Abs(got-spec.SingleCylMs) > 1e-9 {
		t.Fatalf("Time(1) = %v, want %v", got, spec.SingleCylMs)
	}
	third := spec.MaxCyl / 3
	if got := c.Time(third); math.Abs(got-spec.AvgMs) > 0.05 {
		t.Fatalf("Time(maxcyl/3) = %v, want ~%v", got, spec.AvgMs)
	}
	if got := c.Time(spec.MaxCyl); math.Abs(got-spec.FullStrokeMs) > 1e-9 {
		t.Fatalf("Time(maxcyl) = %v, want %v", got, spec.FullStrokeMs)
	}
}

func TestSeekZeroDistanceIsFree(t *testing.T) {
	c := mustCurve(t, barracudaSeek())
	if got := c.Time(0); got != 0 {
		t.Fatalf("Time(0) = %v, want 0", got)
	}
}

func TestSeekNegativeDistanceMirrors(t *testing.T) {
	c := mustCurve(t, barracudaSeek())
	if c.Time(-500) != c.Time(500) {
		t.Fatalf("Time(-500)=%v != Time(500)=%v", c.Time(-500), c.Time(500))
	}
}

func TestPropertySeekMonotonic(t *testing.T) {
	c := mustCurve(t, barracudaSeek())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Intn(150001)
		b := rng.Intn(150001)
		if a > b {
			a, b = b, a
		}
		return c.Time(a) <= c.Time(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySeekPositive(t *testing.T) {
	c := mustCurve(t, barracudaSeek())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(150000)
		tm := c.Time(d)
		return tm > 0 && tm <= c.Spec().FullStrokeMs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekCurveContinuousAtCutoff(t *testing.T) {
	c := mustCurve(t, barracudaSeek())
	cut := int(c.cutoff)
	lo := c.Time(cut)
	hi := c.Time(cut + 1)
	if math.Abs(hi-lo) > 0.02 {
		t.Fatalf("discontinuity at cutoff: Time(%d)=%v Time(%d)=%v", cut, lo, cut+1, hi)
	}
}

func TestMeanTimeNearAvgSpec(t *testing.T) {
	spec := barracudaSeek()
	c := mustCurve(t, spec)
	if got := c.MeanTime(); math.Abs(got-spec.AvgMs) > 0.1 {
		t.Fatalf("MeanTime = %v, want ~%v", got, spec.AvgMs)
	}
}

func mustRotation(t testing.TB, rpm float64) *Rotation {
	t.Helper()
	r, err := NewRotation(rpm)
	if err != nil {
		t.Fatalf("NewRotation(%v): %v", rpm, err)
	}
	return r
}

func TestRotationRejectsNonPositiveRPM(t *testing.T) {
	for _, rpm := range []float64{0, -7200} {
		if _, err := NewRotation(rpm); err == nil {
			t.Fatalf("NewRotation(%v) accepted", rpm)
		}
	}
}

func TestRotationPeriod(t *testing.T) {
	cases := []struct{ rpm, period float64 }{
		{7200, 8.333333333333334},
		{10000, 6},
		{15000, 4},
		{4200, 14.285714285714286},
	}
	for _, tc := range cases {
		r := mustRotation(t, tc.rpm)
		if math.Abs(r.PeriodMs()-tc.period) > 1e-9 {
			t.Fatalf("rpm %v period %v, want %v", tc.rpm, r.PeriodMs(), tc.period)
		}
	}
}

func TestAngleAtWrapsEachRevolution(t *testing.T) {
	r := mustRotation(t, 7200)
	p := r.PeriodMs()
	if a := r.AngleAt(0); a != 0 {
		t.Fatalf("AngleAt(0) = %v, want 0", a)
	}
	if a := r.AngleAt(p); math.Abs(a) > 1e-9 && math.Abs(a-1) > 1e-9 {
		t.Fatalf("AngleAt(period) = %v, want ~0", a)
	}
	if a := r.AngleAt(p / 4); math.Abs(a-0.25) > 1e-9 {
		t.Fatalf("AngleAt(period/4) = %v, want 0.25", a)
	}
	if a := r.AngleAt(10*p + p/2); math.Abs(a-0.5) > 1e-6 {
		t.Fatalf("AngleAt(10.5 periods) = %v, want 0.5", a)
	}
}

func TestLatencyToBasic(t *testing.T) {
	r := mustRotation(t, 10000) // 6 ms period
	// At t=0 the head is at angle 0; sector at angle 0.5 arrives in 3 ms.
	if got := r.LatencyTo(0.5, 0); math.Abs(got-3) > 1e-9 {
		t.Fatalf("LatencyTo(0.5, 0) = %v, want 3", got)
	}
	// Just missed: target barely behind current position costs ~full rev.
	if got := r.LatencyTo(0, 0.001); got < 5.9 || got >= 6 {
		t.Fatalf("just-missed latency = %v, want in [5.9, 6)", got)
	}
}

func TestPropertyLatencyWithinPeriod(t *testing.T) {
	r := mustRotation(t, 7200)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := rng.Float64()
		at := rng.Float64() * 1e6
		lat := r.LatencyTo(target, at)
		return lat >= 0 && lat < r.PeriodMs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLatencyLandsOnTarget(t *testing.T) {
	r := mustRotation(t, 5400)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := rng.Float64()
		at := rng.Float64() * 1e5
		lat := r.LatencyTo(target, at)
		// After waiting, the head should be at the target angle.
		got := r.AngleAt(at + lat)
		diff := math.Abs(got - target)
		if diff > 0.5 {
			diff = 1 - diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgLatencyIsHalfRevolution(t *testing.T) {
	r := mustRotation(t, 7200)
	if got := r.AvgLatencyMs(); math.Abs(got-r.PeriodMs()/2) > 1e-12 {
		t.Fatalf("AvgLatencyMs = %v, want %v", got, r.PeriodMs()/2)
	}
}

func TestTransferTime(t *testing.T) {
	r := mustRotation(t, 10000) // 6 ms period
	// Half a track of 1000 sectors: 3 ms.
	if got := r.TransferTime(500, 1000); math.Abs(got-3) > 1e-9 {
		t.Fatalf("TransferTime(500,1000) = %v, want 3", got)
	}
	if got := r.TransferTime(0, 1000); got != 0 {
		t.Fatalf("TransferTime(0,1000) = %v, want 0", got)
	}
	if got := r.TransferTime(8, 0); got != 0 {
		t.Fatalf("TransferTime with zero spt = %v, want 0", got)
	}
}

func TestLowerRPMSlowsEverything(t *testing.T) {
	fast := mustRotation(t, 7200)
	slow := mustRotation(t, 4200)
	if slow.PeriodMs() <= fast.PeriodMs() {
		t.Fatalf("4200 RPM period %v not longer than 7200 RPM %v",
			slow.PeriodMs(), fast.PeriodMs())
	}
	if slow.TransferTime(100, 1000) <= fast.TransferTime(100, 1000) {
		t.Fatalf("4200 RPM transfer not slower")
	}
}

func BenchmarkSeekTime(b *testing.B) {
	c := mustCurve(b, barracudaSeek())
	for i := 0; i < b.N; i++ {
		_ = c.Time(i % 150000)
	}
}

// modFraction is AngleAt's original formulation, kept as the reference:
// the fractional part of x via math.Mod, shifted into [0,1).
func modFraction(x float64) float64 {
	frac := math.Mod(x, 1)
	if frac < 0 {
		frac += 1
	}
	return frac
}

// TestAngleAtMatchesModReference checks the floor-based AngleAt against
// the math.Mod formulation bit for bit: randomized times spanning 1e-6 to
// 1e9 revolutions (log-uniform, so every exponent range is covered), and
// the edge cases where a fractional-part computation can slip — zero,
// exact integers, the float just below an integer, and negative time.
func TestAngleAtMatchesModReference(t *testing.T) {
	r := mustRotation(t, 7200)
	p := r.PeriodMs()
	check := func(x float64) {
		t.Helper()
		tm := x * p
		got, want := r.AngleAt(tm), modFraction(tm/p)
		if !math.Signbit(x) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("AngleAt(%v) = %v (%#x), Mod reference %v (%#x)",
					tm, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		} else if got != want {
			// An exact negative integer (or -0) gives +0 where Mod
			// gives -0: the same angle, so compare by value.
			t.Fatalf("AngleAt(%v) = %v, Mod reference %v", tm, got, want)
		}
		if got < 0 || got >= 1 {
			t.Fatalf("AngleAt(%v) = %v outside [0,1)", tm, got)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		x := math.Pow(10, -6+15*rng.Float64()) // 1e-6 .. 1e9 revolutions
		check(x)
		check(-x)
	}
	for _, k := range []float64{0, 1, 2, 3, 7, 1e4, 123456, 1 << 30, 1 << 52, 1 << 53} {
		check(k)
		check(-k)
		check(math.Nextafter(k, 0))
		check(math.Nextafter(k, math.Inf(1)))
		check(-math.Nextafter(k, 0))
	}
}

// BenchmarkLatencyTo times the rotational-latency query at the simulated
// times a run actually reaches (10^4 to 10^6 ms, i.e. thousands to
// hundreds of thousands of revolutions), where the cost of extracting
// the rotation phase shows.
func BenchmarkLatencyTo(b *testing.B) {
	r := mustRotation(b, 7200)
	times := make([]float64, 1024)
	rng := rand.New(rand.NewSource(5))
	for i := range times {
		times[i] = math.Pow(10, 4+2*rng.Float64())
	}
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += r.LatencyTo(0.37, times[i&(len(times)-1)])
	}
	latencySink = sum
}

// latencySink keeps BenchmarkLatencyTo's results live.
var latencySink float64
