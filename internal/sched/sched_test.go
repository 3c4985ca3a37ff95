package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// exact adapts a plain cost function to the Cost contract by ignoring
// the bound: it always returns the exact cost, which the contract allows.
func exact[T any](f func(T) float64) Cost[T] {
	return func(item *T, _ float64) float64 { return f(*item) }
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{FCFS: "FCFS", SSTF: "SSTF", SPTF: "SPTF", Policy(9): "Policy(9)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"FCFS", "fcfs", "SSTF", "sstf", "SPTF", "sptf"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("ELEVATOR"); err == nil {
		t.Fatalf("ParsePolicy accepted unknown policy")
	}
}

func TestFCFSOrder(t *testing.T) {
	q := NewQueue[int](Config{Policy: FCFS})
	for i := 0; i < 5; i++ {
		q.Push(i, float64(i))
	}
	for want := 0; want < 5; want++ {
		got, ok := q.Pop(100, nil)
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v, want %d,true", got, ok, want)
		}
	}
	if _, ok := q.Pop(100, nil); ok {
		t.Fatalf("Pop on empty queue reported ok")
	}
}

func TestCostBasedPicksMinimum(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF})
	for _, v := range []int{50, 10, 30, 5, 40} {
		q.Push(v, 0)
	}
	cost := exact(func(v int) float64 { return float64(v) })
	want := []int{5, 10, 30, 40, 50}
	for _, w := range want {
		got, ok := q.Pop(0, cost)
		if !ok || got != w {
			t.Fatalf("Pop = %d,%v, want %d", got, ok, w)
		}
	}
}

func TestTieBreaksByArrival(t *testing.T) {
	q := NewQueue[string](Config{Policy: SPTF})
	q.Push("first", 0)
	q.Push("second", 1)
	cost := exact(func(string) float64 { return 7 })
	got, _ := q.Pop(2, cost)
	if got != "first" {
		t.Fatalf("tie dispatched %q, want first arrival", got)
	}
}

func TestWindowBoundsScan(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF, Window: 2})
	q.Push(100, 0)
	q.Push(50, 0)
	q.Push(1, 0) // outside the window; must not be chosen
	cost := exact(func(v int) float64 { return float64(v) })
	got, _ := q.Pop(0, cost)
	if got != 50 {
		t.Fatalf("windowed Pop = %d, want 50 (cheapest inside window)", got)
	}
}

func TestNegativeWindowNormalized(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF, Window: -5})
	if q.Config().Window != 0 {
		t.Fatalf("negative window not normalized to 0")
	}
}

func TestMaxAgeForcesOldest(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF, MaxAgeMs: 100})
	q.Push(999, 0) // expensive but old
	q.Push(1, 50)  // cheap and fresh
	cost := exact(func(v int) float64 { return float64(v) })

	// Before the age cap the cheap request wins.
	pk, _ := q.Pick(60, cost)
	if pk.Item != 1 || pk.Cost != 1 {
		t.Fatalf("Pick before age cap = %+v, want item 1 at cost 1", pk)
	}
	// Once the oldest entry exceeds MaxAge it is forced out.
	got, _ := q.Pop(150, cost)
	if got != 999 {
		t.Fatalf("Pop after age cap = %d, want forced 999", got)
	}
	if q.ForcedDispatches() != 1 {
		t.Fatalf("ForcedDispatches = %d, want 1", q.ForcedDispatches())
	}
}

func TestPickDoesNotRemove(t *testing.T) {
	q := NewQueue[int](Config{Policy: FCFS})
	q.Push(7, 0)
	if pk, ok := q.Pick(0, nil); !ok || pk.Item != 7 {
		t.Fatalf("Pick = %+v,%v", pk, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Pick removed the entry")
	}
	if _, ok := NewQueue[int](Config{}).Pick(0, nil); ok {
		t.Fatalf("Pick on empty queue reported ok")
	}
}

func TestItemsVisitsArrivalOrder(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF})
	for i := 0; i < 5; i++ {
		q.Push(i, float64(i))
	}
	var got []int
	q.Items(func(v int) { got = append(got, v) })
	for i, v := range got {
		if v != i {
			t.Fatalf("Items order %v", got)
		}
	}
}

func TestOldestArrival(t *testing.T) {
	q := NewQueue[int](Config{Policy: FCFS})
	if _, ok := q.OldestArrival(); ok {
		t.Fatalf("OldestArrival on empty queue reported ok")
	}
	q.Push(1, 42)
	q.Push(2, 50)
	if at, ok := q.OldestArrival(); !ok || at != 42 {
		t.Fatalf("OldestArrival = %v,%v, want 42,true", at, ok)
	}
}

func TestCostPanicWhenMissing(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF})
	q.Push(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("Pop without cost function did not panic for SPTF")
		}
	}()
	q.Pop(0, nil)
}

// Property: the queue is work conserving — everything pushed is popped
// exactly once, regardless of policy and cost function.
func TestPropertyWorkConserving(t *testing.T) {
	f := func(seed int64, windowRaw uint8, policyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Policy:   Policy(int(policyRaw) % 3),
			Window:   int(windowRaw) % 8,
			MaxAgeMs: float64(rng.Intn(50)),
		}
		q := NewQueue[int](cfg)
		n := 1 + rng.Intn(100)
		seen := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			q.Push(i, float64(i))
		}
		cost := exact(func(v int) float64 { return float64((v * 31) % 17) })
		for q.Len() > 0 {
			v, ok := q.Pop(float64(n), cost)
			if !ok || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an unwindowed cost-based Pop returns a cost no worse than any
// queued item's cost (greedy optimality of the single dispatch).
func TestPropertyGreedyMinimum(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		q := NewQueue[uint16](Config{Policy: SPTF})
		minVal := vals[0]
		for _, v := range vals {
			q.Push(v, 0)
			if v < minVal {
				minVal = v
			}
		}
		got, ok := q.Pop(0, exact(func(v uint16) float64 { return float64(v) }))
		return ok && got == minVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPopWindowed(b *testing.B) {
	q := NewQueue[int](Config{Policy: SPTF, Window: 128})
	cost := exact(func(v int) float64 { return float64(v % 97) })
	for i := 0; i < b.N; i++ {
		q.Push(i, float64(i))
		if q.Len() > 1000 {
			q.Pop(float64(i), cost)
		}
	}
}
