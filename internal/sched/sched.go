// Package sched provides the request-queue scheduling machinery disk
// models use: a pending queue that can dispatch FCFS, or pick the
// cost-minimizing request (SSTF when the cost is seek distance, SPTF when
// the cost is total positioning time, as the paper's drives use).
//
// A cost scan is branch-and-bound: each cost call receives the scan's
// best cost so far and may give up early once its entry cannot win. The
// scan keeps an entry only on a strict <, so giving up never changes a
// pick or its tie-break (see Cost).
//
// Greedy positioning-time schedulers can starve requests under load, so
// the queue supports a scan window (bounding the dispatch scan, which also
// bounds simulation cost on deeply backed-up queues) and an age cap that
// forces the oldest request out once it has waited too long.
package sched

import (
	"fmt"
	"math"
)

// Policy selects how the queue orders dispatches.
type Policy int

// Supported scheduling policies.
const (
	// FCFS dispatches strictly in arrival order.
	FCFS Policy = iota
	// SSTF dispatches the request with the shortest seek distance.
	SSTF
	// SPTF dispatches the request with the shortest positioning
	// (seek + rotational latency) time — the paper's policy (§7.2).
	SPTF
	// CLOOK dispatches in circular elevator order: ascending cylinders,
	// wrapping from the highest pending cylinder back to the lowest.
	// Like SSTF/SPTF it is cost-driven; the device supplies a cost that
	// encodes scan order (see disk.Drive's queue cost).
	CLOOK
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case SSTF:
		return "SSTF"
	case SPTF:
		return "SPTF"
	case CLOOK:
		return "C-LOOK"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "FCFS", "fcfs":
		return FCFS, nil
	case "SSTF", "sstf":
		return SSTF, nil
	case "SPTF", "sptf":
		return SPTF, nil
	case "CLOOK", "clook", "C-LOOK":
		return CLOOK, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// Config tunes a Queue.
type Config struct {
	Policy Policy
	// Window bounds how many queued requests (in arrival order) a
	// cost-based dispatch scans. Zero means scan everything. DiskSim
	// scans the whole queue; a bounded window trades a little schedule
	// quality for O(1) dispatch on saturated queues.
	Window int
	// MaxAgeMs forces the oldest request to dispatch once it has waited
	// this long, preventing starvation. Zero disables the cap.
	MaxAgeMs float64
}

// Validate reports the first problem with the configuration, if any.
// The error starts with the offending field's name, so a caller holding
// the config in a field of its own can prefix its path ("Sched.").
func (c Config) Validate() error {
	switch {
	case c.Policy < FCFS || c.Policy > CLOOK:
		return fmt.Errorf("Policy %v is not FCFS, SSTF, SPTF or C-LOOK", c.Policy)
	case c.Window < 0:
		return fmt.Errorf("Window %d must be nonnegative", c.Window)
	case !(c.MaxAgeMs >= 0) || math.IsInf(c.MaxAgeMs, 1):
		return fmt.Errorf("MaxAgeMs %v must be finite and nonnegative", c.MaxAgeMs)
	}
	return nil
}

// Cost maps a queued item to its dispatch cost at the scan's `now`. The
// item is passed by pointer into the queue's storage (valid only for the
// call, and never to be modified), so a scan copies no item. bound is the
// best cost the scan has seen so far, +Inf for the first entry: when the
// item's true cost is below bound the function must return it exactly;
// otherwise it may return any value >= bound, typically as soon as a
// partial sum of non-negative terms reaches bound. A return below bound
// therefore always means "this item is the scan's new best".
type Cost[T any] func(item *T, bound float64) float64

type entry[T any] struct {
	item     T
	arrival  float64
	sequence uint64
}

// Queue is a dispatch queue of pending requests, stored as an
// order-preserving ring buffer: logical position i lives at
// buf[(head+i) & (len(buf)-1)], and len(buf) is always a power of two.
//
// The ring makes the two common pops O(1) — FCFS and age-cap-forced
// dispatches both take the front entry — and keeps cost-scan pops cheap
// on deeply backed-up queues: a windowed scan only ever picks an entry
// within Window of the front, so removal shifts at most Window entries
// (the shorter side of the ring) instead of memmoving the whole tail.
// Arrival order, and therefore every tie-break, is exactly that of the
// previous slice implementation (sched_test.go model-checks this
// op-for-op against a reference slice queue).
type Queue[T any] struct {
	cfg  Config
	buf  []entry[T] // circular; nil until the first Push
	head int        // physical index of logical position 0
	n    int        // live entries
	seq  uint64

	forced uint64 // dispatches forced by the age cap
}

// NewQueue builds a queue with the given configuration. Its ring is
// allocated at the first Push, with 16 entries, and doubles only when
// full, so a queue costs memory only as deep as it gets.
func NewQueue[T any](cfg Config) *Queue[T] {
	if cfg.Window < 0 {
		cfg.Window = 0
	}
	return &Queue[T]{cfg: cfg}
}

// Config returns the queue configuration.
func (q *Queue[T]) Config() Config { return q.cfg }

// Len reports the number of queued requests.
func (q *Queue[T]) Len() int { return q.n }

// ForcedDispatches reports how many dispatches the age cap forced.
func (q *Queue[T]) ForcedDispatches() uint64 { return q.forced }

// slot returns the entry at logical position i.
func (q *Queue[T]) slot(i int) *entry[T] {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow reallocates the ring to a power-of-two capacity holding at least
// want entries, linearizing the live entries at the front.
func (q *Queue[T]) grow(want int) {
	capacity := 16
	for capacity < want {
		capacity *= 2
	}
	buf := make([]entry[T], capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.slot(i)
	}
	q.buf = buf
	q.head = 0
}

// Push enqueues item, recording its arrival time for age accounting.
func (q *Queue[T]) Push(item T, now float64) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.seq++
	*q.slot(q.n) = entry[T]{item: item, arrival: now, sequence: q.seq}
	q.n++
}

// Pick is a dispatch decision: the queued entry a Take removes. It is
// valid until the queue next changes.
type Pick[T any] struct {
	Item T
	// Cost is the cost function's exact value for Item (zero for a nil
	// cost function). A cost-scan pick reuses the scan's own evaluation,
	// so a caller comparing the pick against other work pays for no
	// second scan or re-evaluation. Pick evaluates Item's cost with a
	// +Inf bound whenever the scan did not (FCFS, or an age-forced
	// pick), so with a non-nil cost and finite costs, the last cost call
	// of a Pick that returned below its bound was for Item.
	Cost float64

	index  int
	forced bool
	seq    uint64 // the picked entry's sequence, to reject stale picks
}

// Pick selects the entry a Pop would dispatch, without removing it.
// Picking is side-effect-free: in particular it never counts toward
// ForcedDispatches, which only Take and Pop increment. ok is false when
// the queue is empty.
func (q *Queue[T]) Pick(now float64, cost Cost[T]) (p Pick[T], ok bool) {
	i, forced, c, scanned := q.pickIndex(now, cost)
	if i < 0 {
		return Pick[T]{}, false
	}
	e := q.slot(i)
	if !scanned && cost != nil {
		c = cost(&e.item, math.Inf(1))
	}
	return Pick[T]{Item: e.item, Cost: c, index: i, forced: forced, seq: e.sequence}, true
}

// Take removes the picked entry and returns its item, counting an
// age-cap-forced pick in ForcedDispatches exactly as Pop does. A pick
// made before the queue last changed panics: it may name another entry.
func (q *Queue[T]) Take(p Pick[T]) T {
	if p.index >= q.n || q.slot(p.index).sequence != p.seq {
		panic("sched: Take of a stale Pick")
	}
	return q.takeAt(p.index, p.forced)
}

// Pop removes and returns the next request to dispatch. For FCFS the
// cost function is ignored (and may be nil); for the cost-driven
// policies it must follow the Cost contract at `now`. Ties break by
// arrival order.
// ok is false when the queue is empty.
func (q *Queue[T]) Pop(now float64, cost Cost[T]) (item T, ok bool) {
	i, forced, _, _ := q.pickIndex(now, cost)
	if i < 0 {
		var zero T
		return zero, false
	}
	return q.takeAt(i, forced), true
}

// takeAt removes and returns the entry at logical position i, counting
// the dispatch in ForcedDispatches when the age cap forced it.
func (q *Queue[T]) takeAt(i int, forced bool) T {
	if forced {
		q.forced++
	}
	item := q.slot(i).item
	q.remove(i)
	return item
}

// remove deletes the entry at logical position i, preserving the order
// of the rest by shifting whichever side of the ring is shorter. The
// vacated physical slot is zeroed so popped items (and any closures they
// hold) are released to the GC.
func (q *Queue[T]) remove(i int) {
	var zero entry[T]
	switch {
	case i == 0:
		*q.slot(0) = zero
		q.head = (q.head + 1) & (len(q.buf) - 1)
	case i == q.n-1:
		*q.slot(i) = zero
	case i < q.n-1-i:
		// Shift the entries in front of i back by one, then drop the front.
		for j := i; j > 0; j-- {
			*q.slot(j) = *q.slot(j - 1)
		}
		*q.slot(0) = zero
		q.head = (q.head + 1) & (len(q.buf) - 1)
	default:
		// Shift the entries behind i forward by one.
		for j := i; j < q.n-1; j++ {
			*q.slot(j) = *q.slot(j + 1)
		}
		*q.slot(q.n - 1) = zero
	}
	q.n--
}

// pickIndex returns the logical index of the entry a dispatch would
// take (-1 if empty), whether the age cap forced the choice, and — when
// the choice came from a cost scan (scanned) — the winner's cost. It is
// side-effect-free so Pick and Pop share it; only Take and Pop commit
// the forced-dispatch count. The scan is branch-and-bound: each entry
// after the first is costed against the best cost so far.
func (q *Queue[T]) pickIndex(now float64, cost Cost[T]) (index int, forced bool, bestCost float64, scanned bool) {
	if q.n == 0 {
		return -1, false, 0, false
	}
	if q.cfg.Policy == FCFS {
		return 0, false, 0, false
	}
	// Anti-starvation: the front entry is always the oldest.
	if q.cfg.MaxAgeMs > 0 && now-q.slot(0).arrival >= q.cfg.MaxAgeMs {
		return 0, true, 0, false
	}
	if cost == nil {
		panic("sched: cost function required for " + q.cfg.Policy.String())
	}
	limit := q.n
	if q.cfg.Window > 0 && limit > q.cfg.Window {
		limit = q.cfg.Window
	}
	best := 0
	bestCost = cost(&q.slot(0).item, math.Inf(1))
	for i := 1; i < limit; i++ {
		if c := cost(&q.slot(i).item, bestCost); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, false, bestCost, true
}

// Items invokes fn for every queued item in arrival order. It exists for
// statistics and tests; fn must not mutate the queue.
func (q *Queue[T]) Items(fn func(T)) {
	for i := 0; i < q.n; i++ {
		fn(q.slot(i).item)
	}
}

// OldestArrival reports the arrival time of the oldest queued request.
// ok is false when the queue is empty.
func (q *Queue[T]) OldestArrival() (at float64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.slot(0).arrival, true
}
