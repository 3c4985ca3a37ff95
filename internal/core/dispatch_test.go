package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simkit"
	"repro/internal/trace"
)

// BenchmarkSADispatchScan times deep-queue SPTF dispatch on HC-SD-SA(n):
// a backlog of random writes arrives at once, so each dispatch scans up
// to the 128-entry window against every idle arm. One op is one backlog
// drained. The harness allocates nothing per op, so allocs/op counts the
// drive's own: zero.
func BenchmarkSADispatchScan(b *testing.B) {
	for _, backlog := range []int{16, 96, 256} {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("sa%d-q%d", n, backlog), func(b *testing.B) {
				eng := simkit.New()
				d, err := NewSA(eng, smallModel(), n)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(61))
				lbas := make([]int64, backlog)
				burst := func() {
					for _, lba := range lbas {
						d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false}, nil)
					}
				}
				op := func() {
					for k := range lbas {
						lbas[k] = rng.Int63n(d.Capacity() - 64)
					}
					eng.After(3, burst)
					eng.Run()
				}
				op() // size the event heap and queues before timing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}
