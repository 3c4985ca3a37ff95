package serve

import (
	"context"
	"sync"
)

// A call is one in-flight computation of a query's answer. All
// requests for the same key while it runs share the one call
// (singleflight): the first becomes the leader and computes; the rest
// attach as waiters. The call's context is canceled when every waiter
// has detached, so a query nobody is waiting for anymore stops burning
// workers — the cancellation propagates through fleet.Run into the
// simulation's arrival loop.
type call struct {
	key string
	q   Query

	ctx    context.Context
	cancel context.CancelFunc

	done chan struct{} // closed when body/err are final
	body []byte
	err  error

	refs int // waiter count, guarded by flightGroup.mu
}

// flightGroup deduplicates concurrent computations by cache key.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*call
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*call)}
}

// join returns the call computing key, creating it when none is in
// flight. leader reports whether the caller must execute the call (and
// eventually finish it); either way the caller holds one reference and
// must detach when done waiting.
//
// cached is probed under the group lock when no call is in flight; a
// hit returns (nil, false, body, true) and no call reference. The probe
// must happen under the same lock that decides leadership: a leader
// caches its answer strictly before finish removes its call from the
// group, so a request that misses the map in here is guaranteed to see
// that answer in the cache — probing before taking the lock leaves a
// window (answer cached, call already retired) where a second leader
// would recompute a key it could have served.
func (g *flightGroup) join(base context.Context, key string, q Query,
	cached func() ([]byte, bool)) (c *call, leader bool, body []byte, hit bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.refs++
		return c, false, nil, false
	}
	if body, ok := cached(); ok {
		return nil, false, body, true
	}
	ctx, cancel := context.WithCancel(base)
	c = &call{key: key, q: q, ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	g.calls[key] = c
	return c, true, nil, false
}

// detach drops one waiter reference. When the last waiter leaves
// before the call finishes, the call's context is canceled so the
// computation aborts promptly.
func (g *flightGroup) detach(c *call) {
	g.mu.Lock()
	c.refs--
	abandoned := c.refs == 0
	g.mu.Unlock()
	if abandoned {
		c.cancel()
	}
}

// finish records the call's outcome, removes it from the group (later
// requests hit the cache or start fresh), and wakes every waiter.
func (g *flightGroup) finish(c *call, body []byte, err error) {
	g.mu.Lock()
	delete(g.calls, c.key)
	g.mu.Unlock()
	c.body, c.err = body, err
	close(c.done)
	c.cancel() // release the context's resources
}
