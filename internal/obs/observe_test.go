package obs

// Observe's forward scan is held to sort.SearchFloat64s, the binary
// search it replaced, on every kind of float64: each edge and its
// neighbours, ±0, ±Inf, NaN payloads and subnormals.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// observeProbes lists the values to hold against the reference for
// one edge set: the special values, then every edge with its nearest
// neighbours on both sides.
func observeProbes(edges []float64) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000000), // negative NaN
		math.Float64frombits(0x7fffffffffffffff), // all-ones payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		-math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, e := range edges {
		xs = append(xs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	return xs
}

// bucketOf reports the bucket Observe counts x into.
func bucketOf(h *Histogram, x float64) int {
	clear(h.Counts)
	h.Observe(x)
	for i, n := range h.Counts {
		if n != 0 {
			return i
		}
	}
	return -1
}

// matchSearch fails unless Observe puts each x where sort.SearchFloat64s
// puts it among the edges.
func matchSearch(t *testing.T, edges []float64, xs []float64) {
	t.Helper()
	h := NewHistogram(edges)
	for _, x := range xs {
		if got, want := bucketOf(h, x), sort.SearchFloat64s(edges, x); got != want {
			t.Fatalf("edges %v: Observe(%v) (bits %#x) counted in bucket %d, SearchFloat64s gives %d",
				edges, x, math.Float64bits(x), got, want)
		}
	}
}

// ascending sorts edges and keeps the strictly ascending, NaN-free
// run NewHistogram accepts.
func ascending(edges []float64) []float64 {
	sort.Float64s(edges) // NaNs first
	out := edges[:0]
	for _, e := range edges {
		if e == e && (len(out) == 0 || e > out[len(out)-1]) {
			out = append(out, e)
		}
	}
	return out
}

func TestObserveMatchesSearch(t *testing.T) {
	matchSearch(t, PhaseEdgesMs, observeProbes(PhaseEdgesMs))
	rng := rand.New(rand.NewSource(26))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64}
	for n := 0; n < 500; n++ {
		edges := make([]float64, 1+rng.Intn(12))
		for i := range edges {
			switch rng.Intn(4) {
			case 0:
				edges[i] = math.Float64frombits(rng.Uint64())
			case 1:
				edges[i] = special[rng.Intn(len(special))]
			case 2:
				edges[i] = float64(rng.Intn(50) - 10)
			default:
				edges[i] = rng.NormFloat64() * 10
			}
		}
		if edges = ascending(edges); len(edges) == 0 {
			continue
		}
		xs := observeProbes(edges)
		for i := 0; i < 20; i++ {
			xs = append(xs, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*20)
		}
		matchSearch(t, edges, xs)
	}
}

// FuzzObserveMatchesSearch decodes an edge set from every eight bytes
// of data (IEEE bits, sorted, duplicates and NaNs dropped) and holds
// Observe to sort.SearchFloat64s on x and on every probe of the edges.
func FuzzObserveMatchesSearch(f *testing.F) {
	var phase []byte
	for _, e := range PhaseEdgesMs {
		phase = binary.LittleEndian.AppendUint64(phase, math.Float64bits(e))
	}
	f.Add(phase, 4.0)
	f.Add(phase, math.NaN())
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		var edges []float64
		for ; len(data) >= 8; data = data[8:] {
			edges = append(edges, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if edges = ascending(edges); len(edges) == 0 {
			return
		}
		matchSearch(t, edges, append(observeProbes(edges), x))
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	// Phase times of a BarracudaES-like drive: seeks up to a full
	// stroke, rotational latency within a revolution, short transfers.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = 17 * rng.Float64()
		case 1:
			xs[i] = 8.33 * rng.Float64()
		default:
			xs[i] = 0.05 + 0.5*rng.Float64()
		}
	}
	h := NewHistogram(PhaseEdgesMs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(xs[i%len(xs)])
	}
}
