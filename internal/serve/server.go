// Package serve is the what-if capacity-planning service: it answers
// parameterized design questions — "P99 latency and watts for SA(4) at
// 1.8× the Financial arrival rate with one arm deconfigured?" — by
// compiling each query into deterministic fleet jobs and serving the
// answers over HTTP with production concerns handled in the shell:
//
//   - a content-addressed result cache keyed on (normalized query,
//     code version): the determinism contract makes a cached answer
//     exactly the answer, byte for byte;
//   - singleflight deduplication, so identical concurrent queries run
//     once and everyone shares the body;
//   - admission control: a bounded compute queue sharded over a worker
//     pool sized to GOMAXPROCS, shedding with 429 + Retry-After when
//     the queue is full;
//   - cancellation: when every waiter for a query disconnects, the
//     computation's context is canceled and the cancellation
//     propagates through fleet.Run into the simulation's arrival loop;
//   - graceful drain: a draining server sheds new work with 503 and
//     finishes what it admitted.
//
// serve is shell code in the idplint sense: it may use goroutines,
// locks, and the wall clock, because nothing here influences simulation
// results — every answer is a pure function of (query, code version),
// computed by the goroutine-free simulation core.
package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// Config sizes the service.
type Config struct {
	// Workers is the compute pool size; 0 means runtime.GOMAXPROCS(0).
	// Each admitted query occupies one worker and runs its replicates
	// serially, so distinct queries are the unit of parallelism.
	Workers int
	// QueueDepth bounds the admitted-but-not-started compute queue;
	// 0 means 4× the worker count. A full queue sheds with 429.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 means 4096 entries.
	CacheEntries int
	// CodeVersion overrides the detected build version in cache keys
	// (useful for tests; empty = detect from build info).
	CodeVersion string
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.workers()
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 4096
}

// Stats is the server's counter snapshot, served at /v1/stats. The
// counters speak to the capacity-planning story: Collapsed counts
// queries answered by joining another request's in-flight computation
// (singleflight), Computed counts actual simulation runs — on a warm
// service Computed stays flat while Queries climbs.
type Stats struct {
	Queries     uint64 `json:"queries"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Collapsed   uint64 `json:"collapsed"`
	Computed    uint64 `json:"computed"`
	Shed        uint64 `json:"shed"`
	Rejected    uint64 `json:"rejected"`
	Errors      uint64 `json:"errors"`
	Draining    bool   `json:"draining"`
	QueueLen    int    `json:"queue_len"`
	QueueDepth  int    `json:"queue_depth"`
	Workers     int    `json:"workers"`
	CacheLen    int    `json:"cache_len"`
	CodeVersion string `json:"code_version"`
}

// Server answers what-if queries. Create with NewServer, expose via
// Handler, stop with Drain.
type Server struct {
	cfg         Config
	codeVersion string

	cache  *resultCache
	flight *flightGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	workCh   chan *call
	workerWG sync.WaitGroup

	admitMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup // admitted calls not yet finished

	// ewmaComputeMs tracks recent compute durations (float64 bits) for
	// Retry-After estimates.
	ewmaComputeMs atomic.Uint64

	nQueries, nCacheHits, nCacheMisses atomic.Uint64
	nCollapsed, nComputed              atomic.Uint64
	nShed, nRejected, nErrors          atomic.Uint64

	// runner computes one query's replicate runs; tests substitute it
	// to make compute time and failures controllable.
	runner func(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error)
}

// NewServer builds and starts the service's worker pool.
func NewServer(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		codeVersion: cfg.CodeVersion,
		cache:       newResultCache(cfg.cacheEntries()),
		flight:      newFlightGroup(),
		baseCtx:     ctx,
		baseCancel:  cancel,
		workCh:      make(chan *call, cfg.queueDepth()),
	}
	if s.codeVersion == "" {
		s.codeVersion = detectCodeVersion()
	}
	s.runner = runQuery
	for i := 0; i < cfg.workers(); i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for c := range s.workCh {
				s.executeCall(c)
			}
		}()
	}
	return s
}

// runQuery is the production runner: the query's replicate jobs fan
// out through fleet under the call's context. Parallelism 1 keeps one
// admitted query on one worker; concurrency comes from distinct
// queries sharding over the pool.
func runQuery(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error) {
	ob := experiments.Observe{Metrics: q.IncludeMetrics, Trace: q.IncludeTrace}
	return fleet.Run(experiments.WhatIfJobs(q.WhatIfQuery, ob), fleet.Options{
		Parallelism: 1,
		BaseSeed:    q.Seed,
		Context:     ctx,
	})
}

// CodeVersion reports the version string participating in cache keys.
func (s *Server) CodeVersion() string { return s.codeVersion }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.admitMu.Lock()
	draining := s.draining
	s.admitMu.Unlock()
	return Stats{
		Queries:     s.nQueries.Load(),
		CacheHits:   s.nCacheHits.Load(),
		CacheMisses: s.nCacheMisses.Load(),
		Collapsed:   s.nCollapsed.Load(),
		Computed:    s.nComputed.Load(),
		Shed:        s.nShed.Load(),
		Rejected:    s.nRejected.Load(),
		Errors:      s.nErrors.Load(),
		Draining:    draining,
		QueueLen:    len(s.workCh),
		QueueDepth:  s.cfg.queueDepth(),
		Workers:     s.cfg.workers(),
		CacheLen:    s.cache.len(),
		CodeVersion: s.codeVersion,
	}
}

// Drain stops admission (new compute sheds with 503), waits for every
// admitted call to finish, then stops the workers. If ctx expires
// first, the in-flight computations are canceled — the cancellation
// reaches the simulation loops, which abandon their runs within an
// arrival batch — and Drain still waits for the workers to unwind
// before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if already {
		return fmt.Errorf("serve: already draining")
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // abort in-flight simulations
		<-drained
	}
	close(s.workCh) // admission is closed, no more sends
	s.workerWG.Wait()
	s.baseCancel()
	return err
}

// shedError is a non-admission outcome: the request was refused before
// any computation, with HTTP semantics attached.
type shedError struct {
	status     int // 429 under overload, 503 while draining
	retryAfter int // seconds
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// admit places c on the compute queue, or refuses with a shedError.
// The caller must have created c as the leader of its flight.
func (s *Server) admit(c *call) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining {
		return &shedError{status: 503, retryAfter: 1, msg: "draining: not accepting new computations"}
	}
	retry := s.retryAfterSeconds()
	select {
	case s.workCh <- c:
		s.inflight.Add(1)
		return nil
	default:
		return &shedError{status: 429, retryAfter: retry,
			msg: fmt.Sprintf("overloaded: compute queue full (%d deep)", s.cfg.queueDepth())}
	}
}

// estWaitMs estimates how long a newly queued call would wait: queue
// occupancy times the recent mean compute time, spread over the pool.
func (s *Server) estWaitMs() float64 {
	ewma := math.Float64frombits(s.ewmaComputeMs.Load())
	return float64(len(s.workCh)+1) * ewma / float64(s.cfg.workers())
}

// retryAfterSeconds derives the Retry-After hint from the wait
// estimate, clamped to [1, 300].
func (s *Server) retryAfterSeconds() int {
	sec := int(math.Ceil(s.estWaitMs() / 1000))
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

// executeCall runs on a worker: computes the call's answer, caches it
// on success, and wakes the waiters.
func (s *Server) executeCall(c *call) {
	defer s.inflight.Done()
	start := time.Now()
	s.nComputed.Add(1)
	runs, err := s.runner(c.ctx, c.q)
	var body []byte
	if err == nil {
		body, err = buildResult(c.q, c.key, s.codeVersion, runs)
	}
	if err == nil {
		s.cache.put(c.key, body)
		s.observeComputeMs(float64(time.Since(start).Milliseconds()))
	} else {
		s.nErrors.Add(1)
	}
	s.flight.finish(c, body, err)
}

// observeComputeMs folds one compute duration into the EWMA (α = ¼).
func (s *Server) observeComputeMs(ms float64) {
	for {
		old := s.ewmaComputeMs.Load()
		prev := math.Float64frombits(old)
		next := prev*0.75 + ms*0.25
		if prev == 0 {
			next = ms
		}
		if s.ewmaComputeMs.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// answer resolves one query: cache, then singleflight, then admission
// and compute. It blocks until the answer (or refusal) is known.
func (s *Server) answer(ctx context.Context, q Query) ([]byte, bool, error) {
	s.nQueries.Add(1)
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		s.nRejected.Add(1)
		return nil, false, &shedError{status: 400, msg: err.Error()}
	}
	key, err := q.Key(s.codeVersion)
	if err != nil {
		s.nRejected.Add(1)
		return nil, false, &shedError{status: 400, msg: err.Error()}
	}
	if body, ok := s.cache.get(key); ok {
		s.nCacheHits.Add(1)
		return body, true, nil
	}

	// Re-probe the cache under the flight lock: a leader for this key
	// may have cached its answer and retired its call between the probe
	// above and the join — joining atomically guarantees this request
	// either attaches to the in-flight call, serves the cached answer,
	// or is the sole leader (never a duplicate recompute).
	c, leader, body, hit := s.flight.join(s.baseCtx, key, q,
		func() ([]byte, bool) { return s.cache.get(key) })
	if hit {
		s.nCacheHits.Add(1)
		return body, true, nil
	}
	s.nCacheMisses.Add(1)
	defer s.flight.detach(c)
	if leader {
		if err := s.admit(c); err != nil {
			s.nShed.Add(1)
			s.flight.finish(c, nil, err)
			return nil, false, err
		}
	} else {
		s.nCollapsed.Add(1)
	}

	select {
	case <-c.done:
		return c.body, false, c.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// detectCodeVersion resolves the running build's identity for cache
// keys: the VCS revision stamped into the binary (with a -dirty suffix
// for modified trees), the module version, or "dev" when neither is
// available (a dev build shares a cache only with itself per process).
func detectCodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			modified = kv.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			rev += "-dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "dev"
}
