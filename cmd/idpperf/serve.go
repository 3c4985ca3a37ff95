package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// codeVersion pins the serve cache keys, so answers are byte-stable
// across builds and comparable against the golden digests.
const codeVersion = "idpperf"

// serveMissEvery makes every tenth query of a pass a never-seen config.
const serveMissEvery = 10

// serveMissPoints are the design points the never-seen configs rotate
// through, each with a fresh seed. Rotating a fixed set keeps the
// compute a miss costs the same from pass to pass and seed to seed.
var serveMissPoints = []experiments.WhatIfQuery{
	{Workload: "Financial", Actuators: 2, ArrivalScale: 1.25},
	{Workload: "Websearch", Actuators: 4, ArrivalScale: 1.5},
	{Workload: "TPC-C", Actuators: 2, ArrivalScale: 1},
	{Workload: "TPC-H", Actuators: 1, ArrivalScale: 1.5},
}

// serveWL drives an in-process what-if server over loopback HTTP in a
// closed loop: Workers client connections each send their next query as
// soon as the previous answer is read. Nine queries in ten repeat one of
// the configs warmed during setup, so they measure the HTTP, cache-key
// and content-addressed cache path alone; the tenth is a config never
// seen before, so it measures admission and the simulation beneath.
type serveWL struct {
	sc scale

	srv    *serve.Server
	hs     *http.Server
	served chan error // the Serve goroutine's result
	url    string
	client *http.Client

	seed      int64
	hits      []serve.Query
	hitBodies [][32]byte
}

func (s *serveWL) setup(seed int64) error {
	if err := s.close(); err != nil {
		return err
	}
	s.seed = seed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = serve.NewServer(serve.Config{Workers: s.sc.Workers, CodeVersion: codeVersion})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/v1/query"
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: s.sc.Workers, MaxIdleConnsPerHost: s.sc.Workers},
		Timeout:   2 * time.Minute,
	}

	// The warmed configs: a fixed spread of design points, so warming
	// costs the same on every seed, with seeded replay seeds. Their seeds
	// stay below 2^40; miss seeds start above it, so a miss can never
	// hit the cache.
	rng := rand.New(rand.NewPCG(uint64(seed), 0x1d9))
	names := []string{"Financial", "Websearch", "TPC-C", "TPC-H"}
	arms := []int{1, 2, 4}
	s.hits = make([]serve.Query, s.sc.ServeHitConfigs)
	for i := range s.hits {
		s.hits[i] = serve.Query{WhatIfQuery: experiments.WhatIfQuery{
			Workload:     names[i%len(names)],
			Actuators:    arms[i%len(arms)],
			ArrivalScale: 0.5 + float64(i%5)*0.25,
			Requests:     s.sc.ServeHitRequests,
			Seed:         1 + rng.Int64N(1<<40-1),
		}}
	}
	replies := s.send(s.hits)
	s.hitBodies = make([][32]byte, len(s.hits))
	for i, r := range replies {
		if err := checkAnswer(s.hits[i], r); err != nil {
			return fmt.Errorf("warming config %d: %w", i, err)
		}
		s.hitBodies[i] = sha256.Sum256(r.body)
	}
	return nil
}

// reply is one query's outcome as the client saw it.
type reply struct {
	status int
	hit    bool
	body   []byte
	ms     float64
	err    error
}

// send posts the queries over Workers connections in a closed loop and
// returns the replies in query order. Latency runs from the send to the
// last byte of the body.
func (s *serveWL) send(qs []serve.Query) []reply {
	replies := make([]reply, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.sc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				replies[i] = s.post(qs[i])
			}
		}()
	}
	wg.Wait()
	return replies
}

func (s *serveWL) post(q serve.Query) reply {
	payload, err := json.Marshal(q)
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Idp-Cache") == "hit",
		body: bytes.TrimSpace(body), ms: ms}
}

// checkAnswer verifies one reply is a complete answer to q: status 200,
// a Result naming q under its content address, every request replayed.
func checkAnswer(q serve.Query, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	var res serve.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		return fmt.Errorf("body is not a result: %w", err)
	}
	key, err := q.Key(codeVersion)
	if err != nil {
		return err
	}
	switch {
	case res.Key != key:
		return fmt.Errorf("result key %s, want %s", res.Key, key)
	case res.Summary.Count != q.Normalize().Requests:
		return fmt.Errorf("result covers %d of %d requests", res.Summary.Count, q.Normalize().Requests)
	}
	return nil
}

// queries builds one pass's query list from its seed.
func (s *serveWL) queries(seed int64) (qs []serve.Query, hitIdx []int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	qs = make([]serve.Query, s.sc.ServeQueries)
	hitIdx = make([]int, len(qs))
	for j := range qs {
		if j%serveMissEvery == serveMissEvery-1 {
			q := serveMissPoints[(j/serveMissEvery)%len(serveMissPoints)]
			q.Requests = s.sc.ServeMissRequests
			q.Seed = 1<<40 + rng.Int64N(1<<62)
			qs[j] = serve.Query{WhatIfQuery: q}
			hitIdx[j] = -1
			continue
		}
		h := rng.IntN(len(s.hits))
		qs[j] = s.hits[h]
		hitIdx[j] = h
	}
	return qs, hitIdx
}

func (s *serveWL) pass(seed int64, c *collector) (*passOut, error) {
	out := newPassOut(c)
	if c != nil {
		// The untraced pass on these inputs cached their answers; a
		// fresh server gives the traced pass the same cache state.
		restart := nanotime()
		if err := s.setup(s.seed); err != nil {
			return out, err
		}
		out.untimedNs += nanotime() - restart
	}
	qs, hitIdx := s.queries(seed)
	before := s.srv.Stats()
	replies := s.send(qs)
	after := s.srv.Stats()

	for j, r := range replies {
		err := checkAnswer(qs[j], r)
		name := "miss"
		if hitIdx[j] >= 0 {
			name = "hit"
			if err == nil && (!r.hit || sha256.Sum256(r.body) != s.hitBodies[hitIdx[j]]) {
				err = errors.New("repeated config not answered from the cache with its warmed body")
			}
		} else {
			if err == nil && r.hit {
				err = errors.New("never-seen config answered from the cache")
			}
			out.simReqs += int64(s.sc.ServeMissRequests)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "idpperf: serve query %d: %v\n", j, err)
		}
		out.ops = append(out.ops, op{name: name, ms: r.ms, failed: err != nil})
		fmt.Fprintf(&out.text, "%d %x\n", j, sha256.Sum256(r.body))
	}
	if c == nil {
		return out, nil
	}

	// Traced pass: the serve layer's counters and its cache-key cost,
	// then the compute beneath the misses, rebuilt with wrappers and
	// checked against the served answers. None of it is pass time.
	check := nanotime()
	defer func() { out.untimedNs += nanotime() - check }()
	out.layer["serve.computed"] = float64(after.Computed - before.Computed)
	out.layer["serve.collapsed"] = float64(after.Collapsed - before.Collapsed)
	out.layer["serve.shed"] = float64(after.Shed - before.Shed)
	out.layer["serve.queries"] = float64(after.Queries - before.Queries)
	out.layer["serve.cache_hits"] = float64(after.CacheHits - before.CacheHits)
	keyStart := nanotime()
	for _, q := range qs {
		if _, err := q.Key(codeVersion); err != nil {
			return out, err
		}
	}
	out.layer["serve.key_ns"] = float64(nanotime()-keyStart) / float64(len(qs))

	var missBusy float64
	for j, q := range qs {
		if hitIdx[j] >= 0 {
			continue
		}
		missBusy += replies[j].ms
		// serve runs replicate 0 of a query with the fleet-derived seed.
		run, err := job(c, q.Label(), func(t *tracer) (*experiments.WhatIfRun, error) {
			return whatIf(c, t, q.WhatIfQuery, fleet.DeriveSeed(q.Seed, 0))
		})
		if err == nil {
			err = sameSummary(run, replies[j].body)
		}
		if err != nil {
			return out, fmt.Errorf("traced rebuild of query %d: %w", j, err)
		}
	}
	out.layer["serve.miss_busy_ms"] = missBusy
	return out, nil
}

// sameSummary checks that a rebuilt what-if run reproduces a served
// answer's response summary exactly.
func sameSummary(run *experiments.WhatIfRun, body []byte) error {
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	r := run.Resp
	got := serve.Summary{Count: r.Count(), MeanMs: r.Mean(), P50Ms: r.Percentile(50),
		P90Ms: r.Percentile(90), P99Ms: r.Percentile(99), MaxMs: r.Max()}
	if got != res.Summary {
		return fmt.Errorf("summary %+v, served %+v", got, res.Summary)
	}
	return nil
}

// close stops the server: no new connections, then a drain of admitted
// work, then the Serve goroutine's exit.
func (s *serveWL) close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv = nil
	return err
}
