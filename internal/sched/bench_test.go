package sched

import (
	"fmt"
	"testing"
)

// benchCost is a cheap deterministic stand-in for a dispatch-cost
// function: queues are benchmarked on their own mechanics, not on the
// drive model behind the cost callback.
func benchCost(v *int64, _ float64) float64 { return float64(*v % 997) }

// BenchmarkQueue measures one push plus one pop at a steady queue depth,
// across the policy/depth grid the simulator actually runs in: FCFS
// (arrival-order pops), and SPTF-style cost scans with the default
// 128-entry window at shallow and deeply backed-up depths.
func BenchmarkQueue(b *testing.B) {
	cases := []struct {
		name  string
		cfg   Config
		depth int
	}{
		{"fcfs-64", Config{Policy: FCFS}, 64},
		{"fcfs-4096", Config{Policy: FCFS}, 4096},
		{"sptf-w128-64", Config{Policy: SPTF, Window: 128, MaxAgeMs: 500}, 64},
		{"sptf-w128-4096", Config{Policy: SPTF, Window: 128, MaxAgeMs: 500}, 4096},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			q := NewQueue[int64](bc.cfg)
			var cost Cost[int64]
			if bc.cfg.Policy != FCFS {
				cost = benchCost
			}
			now := 0.0
			seq := int64(0)
			for i := 0; i < bc.depth; i++ {
				seq++
				q.Push(seq, now)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 0.01
				seq++
				q.Push(seq, now)
				if _, ok := q.Pop(now, cost); !ok {
					b.Fatal("unexpected empty queue")
				}
			}
		})
	}
}

// BenchmarkQueueDrain measures filling a queue to depth and draining it
// with cost scans — the pattern a burst arrival followed by a quiet
// period produces.
func BenchmarkQueueDrain(b *testing.B) {
	for _, depth := range []int{256, 2048} {
		b.Run(fmt.Sprintf("sptf-w128-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			q := NewQueue[int64](Config{Policy: SPTF, Window: 128, MaxAgeMs: 500})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := float64(i)
				for j := 0; j < depth; j++ {
					q.Push(int64(j), now)
				}
				for {
					if _, ok := q.Pop(now, benchCost); !ok {
						break
					}
				}
			}
		})
	}
}
