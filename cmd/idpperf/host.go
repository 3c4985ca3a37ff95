package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostSamples are the Go runtime counters a pass is measured with.
var hostSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// hostDelta is the change of the runtime counters over a pass.
type hostDelta struct {
	allocBytes, mallocs float64
	gcCPU, totalCPU     float64
}

func readHost() hostDelta {
	s := make([]metrics.Sample, len(hostSamples))
	for i, name := range hostSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return hostDelta{allocBytes: v(0), mallocs: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (h hostDelta) sub(o hostDelta) hostDelta {
	return hostDelta{h.allocBytes - o.allocBytes, h.mallocs - o.mallocs, h.gcCPU - o.gcCPU, h.totalCPU - o.totalCPU}
}

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM).
func peakRSSBytes() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
