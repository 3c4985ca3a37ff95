package main

import (
	"math"
	"sync"
)

// The machine this benchmark runs on is shared, and its speed drifts by
// tens of percent over minutes, which no statistic within one run can
// cancel. So every run also times a fixed reference computation between
// its set-ups and passes, and reports its time metrics in reference
// seconds: measured seconds × refNominalS ÷ the run's median reference
// time. The reference calls no repository code and allocates nothing
// while timed, so no change under test can move it.

// refNominalS is the reference's time on the machine the bounds were
// set on (a 2-vCPU Intel Xeon VM, Go 1.24): there, reference seconds
// and seconds agree.
const refNominalS = 0.027

// refIters is the reference's length in heap updates per worker.
const refIters = 100_000

// refTable is the reference's lookup table: 4 MB of distinct values, so
// its random reads miss the caches as the simulator's working set does.
var refTable = func() []float64 {
	t := make([]float64, 1<<19)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = float64(x>>40) * 1e-9
	}
	return t
}()

type refItem struct {
	at  float64
	seq uint64
}

// refLoop is the reference computation: a 4-ary min-heap of 16 384
// items, each iteration updating the minimum with a square root and a
// random table read and sifting it down.
func refLoop(seed uint64) float64 {
	h := make([]refItem, 1<<14)
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h {
		h[i] = refItem{at: float64(next()>>11) / (1 << 53), seq: uint64(i)}
	}
	down := func(i int) {
		for {
			best := i
			for c := 4*i + 1; c < 4*i+5 && c < len(h); c++ {
				if h[c].at < h[best].at {
					best = c
				}
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i := len(h) / 4; i >= 0; i-- {
		down(i)
	}
	var acc float64
	for i := 0; i < refIters; i++ {
		r := next()
		d := math.Sqrt(float64(r>>40)) * 1e-3
		h[0].at += d + refTable[r&(1<<19-1)]
		acc += d
		down(0)
	}
	return acc + h[0].at
}

// refSample runs the reference on every worker at once and returns its
// wall time in seconds.
func refSample(workers int) float64 {
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	start := nanotime()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = refLoop(uint64(w) + 1)
		}(w)
	}
	wg.Wait()
	return float64(nanotime()-start) / 1e9
}
