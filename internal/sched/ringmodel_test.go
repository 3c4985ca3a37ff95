package sched

import (
	"math"
	"math/rand"
	"testing"
)

// refQueue is the pre-ring-buffer slice implementation of Queue, kept as
// the behavioral model: selection, tie-breaks, and arrival order are the
// original splice-based mechanics. Forced-dispatch counting follows the
// fixed semantics (only a removal counts; a look-ahead is side-effect-free)
// — the original implementation's counting through pickIndex inflated the
// counter on a look-ahead, which TestPickDoesNotCountForcedDispatches
// pins down.
type refQueue struct {
	cfg     Config
	entries []refEntry
	forced  uint64
}

type refEntry struct {
	item    int
	arrival float64
}

func newRefQueue(cfg Config) *refQueue {
	if cfg.Window < 0 {
		cfg.Window = 0
	}
	return &refQueue{cfg: cfg}
}

func (q *refQueue) push(item int, now float64) {
	q.entries = append(q.entries, refEntry{item: item, arrival: now})
}

func (q *refQueue) pickIndex(now float64, cost func(int) float64) (int, bool) {
	if len(q.entries) == 0 {
		return -1, false
	}
	if q.cfg.Policy == FCFS {
		return 0, false
	}
	if q.cfg.MaxAgeMs > 0 && now-q.entries[0].arrival >= q.cfg.MaxAgeMs {
		return 0, true
	}
	limit := len(q.entries)
	if q.cfg.Window > 0 && limit > q.cfg.Window {
		limit = q.cfg.Window
	}
	best := 0
	bestCost := cost(q.entries[0].item)
	for i := 1; i < limit; i++ {
		if c := cost(q.entries[i].item); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, false
}

func (q *refQueue) peek(now float64, cost func(int) float64) (int, bool) {
	i, _ := q.pickIndex(now, cost)
	if i < 0 {
		return 0, false
	}
	return q.entries[i].item, true
}

func (q *refQueue) pop(now float64, cost func(int) float64) (int, bool) {
	i, forced := q.pickIndex(now, cost)
	if i < 0 {
		return 0, false
	}
	if forced {
		q.forced++
	}
	item := q.entries[i].item
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	return item, true
}

// modelConfigs covers every policy, with and without scan windows and
// age caps.
var modelConfigs = []Config{
	{Policy: FCFS},
	{Policy: SSTF},
	{Policy: SPTF},
	{Policy: CLOOK},
	{Policy: SPTF, Window: 4},
	{Policy: SPTF, Window: 128},
	{Policy: SSTF, Window: 1},
	{Policy: SPTF, MaxAgeMs: 3},
	{Policy: SPTF, Window: 8, MaxAgeMs: 2},
	{Policy: SSTF, Window: 3, MaxAgeMs: 0.5},
	{Policy: CLOOK, Window: 16, MaxAgeMs: 1},
}

// TestRingMatchesSliceModel drives the ring-buffer Queue and the
// reference slice queue through identical randomized sequences of Push,
// Pop, Pick alone, and Pick followed by Take, across every policy,
// window, and age-cap setting, and requires identical observable
// behavior at every step: same dispatched items, same picks (and pick
// costs), same lengths, same oldest arrivals, same forced counts, same
// arrival-order iteration. Both queues see the exact cost.
func TestRingMatchesSliceModel(t *testing.T) {
	// A stateful cost (keyed off the item and the last dispatch)
	// exercises re-scanning with changing "arm positions".
	cost := func(v, armPos int) float64 {
		d := v%211 - armPos%211
		if d < 0 {
			d = -d
		}
		return float64(d)
	}
	for _, cfg := range modelConfigs {
		t.Run(cfg.Policy.String(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				checkAgainstModel(t, cfg, int64(trial*31+7), cost, false)
			}
		})
	}
}

// TestBoundedCostMatchesSliceModel is the exactness check for the
// branch-and-bound scan: the Queue scans with a bounded cost that gives
// up (+Inf) whenever the true cost reaches the bound it is handed, while
// the reference slice queue scans with exact costs. Picks, pick costs,
// forced-dispatch counts and contents must stay identical op for op.
// Most costs are drawn from a handful of values, so most scans break
// ties; every third item is nudged up by a few 1e-4, so near-ties test
// that the bound handed to the cost is the exact best so far.
func TestBoundedCostMatchesSliceModel(t *testing.T) {
	cost := func(v, armPos int) float64 {
		c := float64((v*31+armPos*17)%5) * 0.25
		if v%3 == 0 {
			c += float64(v%7) * 1e-4
		}
		return c
	}
	for _, cfg := range modelConfigs {
		t.Run(cfg.Policy.String(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				checkAgainstModel(t, cfg, int64(trial*37+11), cost, true)
			}
		})
	}
}

// checkAgainstModel runs one randomized 400-op trial of the Queue
// against the reference slice queue. cost(v, armPos) is the exact cost
// of item v given the last dispatched item; the reference always scans
// with it, and the Queue scans with it too unless bounded, in which case
// its cost returns +Inf for every candidate whose exact cost is at least
// the scan's bound.
func checkAgainstModel(t *testing.T, cfg Config, seed int64, cost func(v, armPos int) float64, bounded bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := NewQueue[int](cfg)
	ref := newRefQueue(cfg)
	armPos := 0
	var exactFn func(int) float64
	var qcost Cost[int]
	if cfg.Policy != FCFS {
		exactFn = func(v int) float64 { return cost(v, armPos) }
		qcost = func(v *int, bound float64) float64 {
			c := cost(*v, armPos)
			if bounded && c >= bound {
				return math.Inf(1)
			}
			return c
		}
	}
	now := 0.0
	next := 0
	for op := 0; op < 400; op++ {
		now += rng.Float64()
		switch k := rng.Intn(10); {
		case k < 5: // push
			q.Push(next, now)
			ref.push(next, now)
			next++
		case k < 7: // pop
			got, gotOK := q.Pop(now, qcost)
			want, wantOK := ref.pop(now, exactFn)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d op %d: Pop = (%d,%v), reference = (%d,%v)",
					seed, op, got, gotOK, want, wantOK)
			}
			if gotOK {
				armPos = got
			}
		default: // pick, then take it on k == 9
			pk, gotOK := q.Pick(now, qcost)
			want, wantOK := ref.peek(now, exactFn)
			if gotOK != wantOK || (gotOK && pk.Item != want) {
				t.Fatalf("seed %d op %d: Pick = (%d,%v), reference = (%d,%v)",
					seed, op, pk.Item, gotOK, want, wantOK)
			}
			if gotOK && exactFn != nil && pk.Cost != exactFn(pk.Item) {
				t.Fatalf("seed %d op %d: Pick cost %v, exact cost %v",
					seed, op, pk.Cost, exactFn(pk.Item))
			}
			if gotOK && k == 9 {
				got := q.Take(pk)
				want, _ := ref.pop(now, exactFn)
				if got != want {
					t.Fatalf("seed %d op %d: Take = %d, reference Pop = %d",
						seed, op, got, want)
				}
				armPos = got
			}
		}
		if q.Len() != len(ref.entries) {
			t.Fatalf("seed %d op %d: Len = %d, reference = %d",
				seed, op, q.Len(), len(ref.entries))
		}
		if q.ForcedDispatches() != ref.forced {
			t.Fatalf("seed %d op %d: forced = %d, reference = %d",
				seed, op, q.ForcedDispatches(), ref.forced)
		}
		gotAt, gotOK := q.OldestArrival()
		var wantAt float64
		wantOK := len(ref.entries) > 0
		if wantOK {
			wantAt = ref.entries[0].arrival
		}
		if gotOK != wantOK || gotAt != wantAt {
			t.Fatalf("seed %d op %d: OldestArrival = (%v,%v), reference = (%v,%v)",
				seed, op, gotAt, gotOK, wantAt, wantOK)
		}
		var items, refItems []int
		q.Items(func(v int) { items = append(items, v) })
		for _, e := range ref.entries {
			refItems = append(refItems, e.item)
		}
		if len(items) != len(refItems) {
			t.Fatalf("seed %d op %d: Items length mismatch", seed, op)
		}
		for i := range items {
			if items[i] != refItems[i] {
				t.Fatalf("seed %d op %d: arrival order diverges at %d: %d vs %d",
					seed, op, i, items[i], refItems[i])
			}
		}
	}
}

// TestPickDoesNotCountForcedDispatches is the regression test for the
// look-ahead accounting bug: picking from a queue whose front entry has
// exceeded the age cap must not count a forced dispatch — only the Take
// (or Pop) that actually dispatches it does.
func TestPickDoesNotCountForcedDispatches(t *testing.T) {
	q := NewQueue[int](Config{Policy: SPTF, MaxAgeMs: 10})
	cost := exact(func(int) float64 { return 1 })
	q.Push(1, 0)
	q.Push(2, 0)

	var pk Pick[int]
	for i := 0; i < 5; i++ {
		var ok bool
		if pk, ok = q.Pick(100, cost); !ok {
			t.Fatal("Pick on non-empty queue failed")
		}
	}
	if got := q.ForcedDispatches(); got != 0 {
		t.Fatalf("ForcedDispatches after picks = %d, want 0", got)
	}

	if v := q.Take(pk); v != 1 {
		t.Fatalf("Take = %d, want the aged front entry 1", v)
	}
	if got := q.ForcedDispatches(); got != 1 {
		t.Fatalf("ForcedDispatches after one forced take = %d, want 1", got)
	}
	if v, ok := q.Pop(100, cost); !ok || v != 2 {
		t.Fatalf("Pop = (%d,%v), want the aged entry 2", v, ok)
	}
	if got := q.ForcedDispatches(); got != 2 {
		t.Fatalf("ForcedDispatches after a forced pop = %d, want 2", got)
	}
}

// TestTakeRejectsStalePick checks that a pick made before the queue
// changed cannot remove whatever entry now sits at its position.
func TestTakeRejectsStalePick(t *testing.T) {
	q := NewQueue[int](Config{Policy: FCFS})
	q.Push(1, 0)
	q.Push(2, 0)
	pk, _ := q.Pick(0, nil)
	q.Pop(0, nil)
	q.Push(3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Take of a stale pick did not panic")
		}
	}()
	q.Take(pk)
}

// TestQueueGrowsFromUse checks that a queue holds no ring until its
// first Push, then 16 entries, doubling only when it is full, and that
// growing keeps every entry in arrival order across a wrapped ring.
func TestQueueGrowsFromUse(t *testing.T) {
	q := NewQueue[int](Config{Policy: FCFS})
	if q.buf != nil {
		t.Fatalf("new queue holds a %d-entry ring", len(q.buf))
	}
	q.Push(-1, 0)
	if len(q.buf) != 16 {
		t.Fatalf("first Push made a %d-entry ring, want 16", len(q.buf))
	}
	q.Pop(0, nil) // the next entries wrap around the ring's end
	for i := 0; i < 40; i++ {
		q.Push(i, float64(i))
		want := 16
		for want < i+1 {
			want *= 2
		}
		if len(q.buf) != want {
			t.Fatalf("%d entries in a %d-entry ring, want %d", i+1, len(q.buf), want)
		}
	}
	for i := 0; i < 40; i++ {
		if v, ok := q.Pop(float64(i), nil); !ok || v != i {
			t.Fatalf("Pop %d = (%d,%v)", i, v, ok)
		}
	}
}
