package par

import "sync"

// inlineLPs is the busy-LP count below which a window runs inline on
// the goroutine that called Run instead of through the pool. A pooled
// window costs a wake and cache misses wherever an LP's state moves
// between cores, while a member LP's share of a 64-drive lpraid window
// is only 0.2 to 0.5 µs (2-vCPU Xeon VM, go1.24). At 32 every healthy
// lpraid window runs inline (none has more than about 20 busy LPs) and
// only the rebuild's full-stripe windows pool. There, degraded
// BenchmarkPartitionedRAID at two workers took 1.045x the one-worker
// time with a threshold of 32 and 1.083x with 8 (medians of 10
// alternating pairs; 32 was faster in 9 of them).
const inlineLPs = 32

// pool executes windows on the goroutine that called Run (the
// coordinator) together with helper goroutines. Each LP of a window is
// claimed exactly once, under mu, so an LP runs on one goroutine per
// window and window execution stays race-free by the same partition as
// in series. The helpers exist only inside Run: they start on the
// first pooled window and stop, and exit, when Run returns.
type pool struct {
	mu    sync.Mutex
	ready *sync.Cond // helpers wait here for a new window
	done  *sync.Cond // the coordinator waits here for claimed LPs and exiting helpers

	// The current window and its claim state.
	work    []*LP
	bound   float64
	limit   float64
	cursor  int    // next unclaimed LP of work
	pending int    // LPs of work not yet finished
	epoch   uint64 // windows published

	helpers int
	live    int    // helper goroutines not yet exited
	running bool   // helpers started in this Run and not yet told to stop
	helpFn  func() // p.help, bound once so starting a helper allocates nothing
}

func newPool(helpers int) *pool {
	p := &pool{helpers: helpers}
	p.ready = sync.NewCond(&p.mu)
	p.done = sync.NewCond(&p.mu)
	p.helpFn = p.help
	return p
}

// run executes one window of work, claiming LPs alongside the helpers,
// and returns the events fired once every LP has run.
func (p *pool) run(work []*LP, bound, limit float64) uint64 {
	p.mu.Lock()
	if !p.running {
		p.start()
	}
	p.work, p.bound, p.limit = work, bound, limit
	p.cursor, p.pending = 0, len(work)
	p.epoch++
	p.ready.Broadcast()
	p.claim()
	for p.pending > 0 {
		p.done.Wait()
	}
	p.mu.Unlock()
	var n uint64
	for _, lp := range work {
		n += lp.ran
	}
	return n
}

// claim runs LPs of the current window until none is left unclaimed.
// It is called with mu held and releases it while an LP runs.
func (p *pool) claim() {
	for p.cursor < len(p.work) {
		lp := p.work[p.cursor]
		p.cursor++
		bound, limit := p.bound, p.limit
		p.mu.Unlock()
		lp.ran = runWindow(lp, bound, limit)
		p.mu.Lock()
		p.pending--
	}
	if p.pending == 0 {
		p.done.Signal()
	}
}

// start launches the helpers for the current Run; mu is held.
func (p *pool) start() {
	p.running = true
	p.live = p.helpers
	for i := 0; i < p.helpers; i++ {
		go p.helpFn()
	}
}

// stop ends the helpers and waits for them to exit, so an Engine holds
// no goroutines outside Run.
func (p *pool) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.running {
		return
	}
	p.running = false
	p.ready.Broadcast()
	for p.live > 0 {
		p.done.Wait()
	}
}

// help is a helper goroutine: it waits for each new window and claims
// LPs from it until the pool stops. It gets mu only after the
// coordinator has published the window it was started for, so it
// starts one epoch behind and joins whichever window is current.
func (p *pool) help() {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := p.epoch - 1
	for {
		for p.running && p.epoch == seen {
			p.ready.Wait()
		}
		if !p.running {
			p.live--
			p.done.Signal()
			return
		}
		seen = p.epoch
		p.claim()
	}
}

func (e *Engine) stopPool() {
	if e.pool != nil {
		e.pool.stop()
	}
}
