package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// testQuery is small enough to simulate in tens of milliseconds but
// exercises faults, arrival scaling, and replication.
func testQuery() Query {
	return Query{WhatIfQuery: experiments.WhatIfQuery{
		Workload:     "Financial",
		Actuators:    2,
		ArrivalScale: 1.5,
		Requests:     2000,
		Seed:         11,
		Reps:         2,
		ArmFaults:    []experiments.WhatIfArmFault{{AtFrac: 0.4, Arm: 0}},
	}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = "test-v1"
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postQuery(t *testing.T, url string, q Query) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeByteIdentity is the serving layer's core guarantee: the same
// query served cold, warm (cache hit), and under concurrency 16 returns
// byte-identical bodies, identical concurrent queries collapse into one
// computation, and a separate server instance with the same code
// version reproduces the bytes exactly.
func TestServeByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	q := testQuery()

	resp, cold := postQuery(t, ts.URL, q)
	if resp.StatusCode != 200 {
		t.Fatalf("cold status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Idp-Cache"); got != "miss" {
		t.Errorf("cold X-Idp-Cache = %q, want miss", got)
	}
	resp, warm := postQuery(t, ts.URL, q)
	if got := resp.Header.Get("X-Idp-Cache"); got != "hit" {
		t.Errorf("warm X-Idp-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm bodies differ:\n%s\nvs\n%s", cold, warm)
	}

	// A fresh server (cold cache) under concurrency 16: identical
	// bodies, and the duplicates collapse onto one computation. The
	// leader's computation waits until the other 15 requests have joined
	// its flight, so none of them can arrive late enough to hit the
	// cache instead.
	s2, ts2 := newTestServer(t, Config{Workers: 4})
	s2.runner = func(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error) {
		for deadline := time.Now().Add(30 * time.Second); s2.Stats().Collapsed < 15 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return runQuery(ctx, q)
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, 16)
	codes := make([]int, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, b := postQuery(t, ts2.URL, q)
			bodies[i], codes[i] = b, r.StatusCode
		}()
	}
	wg.Wait()
	for i := range bodies {
		if codes[i] != 200 {
			t.Fatalf("concurrent request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], cold) {
			t.Fatalf("concurrent body %d differs from cold serial body", i)
		}
	}
	st := s2.Stats()
	if st.Computed != 1 {
		t.Errorf("fresh server computed %d times for 16 identical queries, want 1", st.Computed)
	}
	if st.Collapsed != 15 {
		t.Errorf("collapsed %d (cache hits %d), want all 15 duplicates collapsed", st.Collapsed, st.CacheHits)
	}
	_ = s
}

// TestCacheKeyCodeVersion pins that the cache key — and therefore the
// cached answer — changes when the code version changes, so a deploy
// can never serve a stale build's results.
func TestCacheKeyCodeVersion(t *testing.T) {
	q := testQuery().Normalize()
	k1, err := q.Key("v1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := q.Key("v2")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatalf("key unchanged across code versions: %s", k1)
	}
	q2 := q
	q2.Seed++
	k3, err := q2.Key("v1")
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("key unchanged when the seed changed")
	}
	// Normalization: spelling the defaults is the same question.
	qDefaulted := Query{WhatIfQuery: experiments.WhatIfQuery{Workload: "TPC-C", Seed: 3}}
	qExplicit := Query{WhatIfQuery: experiments.WhatIfQuery{
		Workload: "TPC-C", Seed: 3, Actuators: 1, ArrivalScale: 1,
		Requests: experiments.DefaultConfig().Requests, Reps: 1,
	}}
	ka, _ := qDefaulted.Key("v1")
	kb, _ := qExplicit.Key("v1")
	if ka != kb {
		t.Fatal("normalized and explicit default queries hash differently")
	}
	// The canonical JSON is the key's preimage: pinning it pins every
	// cached default answer across releases that only drop unset fields.
	canon, err := json.Marshal(qDefaulted.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"workload":"TPC-C","actuators":1,"arrival_scale":1,"requests":150000,"seed":3,"reps":1}`
	if string(canon) != want {
		t.Fatalf("default query canonical JSON\n got %s\nwant %s", canon, want)
	}
}

// fakeRuns builds a minimal deterministic replicate result for stubbed
// runners.
func fakeRuns(n int) []*experiments.WhatIfRun {
	out := make([]*experiments.WhatIfRun, n)
	for i := range out {
		resp := &stats.Sample{}
		rot := &stats.Sample{}
		for j := 0; j < 10; j++ {
			resp.Add(float64(j + 1))
		}
		out[i] = &experiments.WhatIfRun{
			Run: experiments.Run{
				Label: "stub", Resp: resp, RotLat: rot,
				ElapsedMs: 1000, Completed: 10,
			},
			HealthyArms: 1, TotalArms: 1,
		}
	}
	return out
}

// TestSheddingUnderOverload fills the one-worker, depth-one queue with
// blocked computations and checks the overflow sheds: 429, Retry-After
// set, shed counter counting — while every admitted request completes
// correctly once unblocked.
func TestSheddingUnderOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.runner = func(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error) {
		select {
		case <-release:
			return fakeRuns(q.Reps), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfter := make([]string, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := testQuery()
			q.Seed = int64(100 + i) // distinct queries: no coalescing
			r, b := postQuery(t, ts.URL, q)
			codes[i], bodies[i], retryAfter[i] = r.StatusCode, b, r.Header.Get("Retry-After")
		}()
	}
	// Let the requests reach admission, then release the workers.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Shed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	var ok200, shed429 int
	for i := range codes {
		switch codes[i] {
		case 200:
			ok200++
			var res Result
			if err := json.Unmarshal(bodies[i], &res); err != nil {
				t.Errorf("admitted response %d not a Result: %v", i, err)
			}
		case 429:
			shed429++
			if retryAfter[i] == "" {
				t.Errorf("shed response %d missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, codes[i], bodies[i])
		}
	}
	if shed429 == 0 {
		t.Fatalf("no shedding with workers=1 depth=1 and %d concurrent queries", n)
	}
	if ok200 == 0 {
		t.Fatal("every request shed; admitted requests should complete")
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Errorf("stats.Shed = 0, want > 0")
	}
}

// TestDrainShedsAndFinishes: a draining server refuses new compute
// with 503 but completes what it admitted, and Drain returns once the
// pool is idle.
func TestDrainShedsAndFinishes(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 2, CodeVersion: "test-v1"}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.runner = func(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error) {
		started <- struct{}{}
		<-release
		return fakeRuns(q.Reps), nil
	}

	// One admitted slow query...
	var admittedWG sync.WaitGroup
	admittedWG.Add(1)
	var admittedCode int
	go func() {
		defer admittedWG.Done()
		r, _ := postQuery(t, ts.URL, testQuery())
		admittedCode = r.StatusCode
	}()
	<-started

	// ...then drain in the background; new queries must 503.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().Draining && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	q := testQuery()
	q.Seed = 999
	r, _ := postQuery(t, ts.URL, q)
	if r.StatusCode != 503 {
		t.Errorf("query during drain: status %d, want 503", r.StatusCode)
	}

	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v before the admitted query finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drainDone; err != nil {
		t.Errorf("Drain: %v", err)
	}
	admittedWG.Wait()
	if admittedCode != 200 {
		t.Errorf("admitted query finished with %d, want 200", admittedCode)
	}
}

// TestAbandonedQueryCanceled: when the only client waiting on a
// computation disconnects, the computation's context cancels so the
// simulation stops burning a worker.
func TestAbandonedQueryCanceled(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 2, CodeVersion: "test-v1"})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	runnerCanceled := make(chan struct{})
	s.runner = func(ctx context.Context, q Query) ([]*experiments.WhatIfRun, error) {
		<-ctx.Done()
		close(runnerCanceled)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	ansDone := make(chan error, 1)
	go func() {
		_, _, err := s.answer(ctx, testQuery())
		ansDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the runner
	cancel()
	select {
	case <-runnerCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("runner context not canceled after the last waiter left")
	}
	if err := <-ansDone; err != context.Canceled {
		t.Errorf("answer err = %v, want context.Canceled", err)
	}
}

// invalidQueries are malformed and invalid query bodies; where want is
// set, the 400's error message must name the offending input. The query
// has no engine-selection field: lp_parallel is unknown.
var invalidQueries = map[string]struct{ body, want string }{
	"bad json":        {body: "{"},
	"unknown field":   {body: `{"workload":"Financial","bogus":1}`, want: "bogus"},
	"lp_parallel":     {body: `{"workload":"Financial","lp_parallel":true}`, want: `unknown field \"lp_parallel\"`},
	"bad workload":    {body: `{"workload":"nope"}`},
	"bad actuators":   {body: `{"workload":"Financial","actuators":99}`},
	"trace too large": {body: fmt.Sprintf(`{"workload":"Financial","requests":%d,"include_trace":true}`, MaxTraceRequests+1)},
	// The serving limits, beyond what the model itself accepts.
	"rpm off grid":  {body: `{"workload":"Financial","rpm":3000}`, want: "what-if: rpm 3000 not in the evaluated grid (7200, 6200, 5200, 4200)"},
	"actuators 9":   {body: `{"workload":"Financial","actuators":9}`, want: "what-if: actuators 9 outside [1,8]"},
	"arrival scale": {body: `{"workload":"Financial","arrival_scale":20}`, want: "what-if: arrival_scale 20 outside [0.1,16]"},
	"requests 9M":   {body: `{"workload":"Financial","requests":9000000}`, want: "what-if: requests 9000000 outside [1,8000000]"},
	"reps 65":       {body: `{"workload":"Financial","reps":65}`, want: "what-if: reps 65 outside [1,64]"},
	// One query per body: a valid query followed by anything but
	// whitespace is not answered for its first part.
	"trailing data": {body: `{"workload":"Financial","requests":500,"seed":1} {"workload":"nope"} garbage`,
		want: "trailing data after the query object"},
}

// TestQueryValidation400 maps every invalidQueries body to a 400.
func TestQueryValidation400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, c := range invalidQueries {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), c.want) {
			t.Errorf("%s: error %s does not mention %s", name, msg, c.want)
		}
	}
}

// TestCacheLRUEviction: the cache stays bounded and evicts the least
// recently used entry first.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	c.get("a") // refresh a; b is now least recent
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite refresh")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}
