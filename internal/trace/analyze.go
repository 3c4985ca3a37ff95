package trace

import (
	"fmt"
	"io"
)

// Stats summarizes the statistical shape of a trace — the same
// quantities the workload synthesizers control, so a synthesized trace
// can be validated against its spec and a foreign trace can be
// characterized before replay.
type Stats struct {
	Requests           int
	DurationMs         float64
	MeanInterArrivalMs float64
	CV2InterArrival    float64 // squared coefficient of variation (1 = Poisson)
	ReadFraction       float64
	MeanSizeSectors    float64
	MaxSizeSectors     int
	SeqFraction        float64 // requests continuing the previous request on their disk
	Disks              int     // 1 + highest disk number
	DiskLoadCV         float64 // coefficient of variation of per-disk request counts
	FootprintSectors   int64   // highest block touched (per-disk max)
}

// WriteStats renders the stats as a labeled table.
func WriteStats(w io.Writer, label string, s Stats) {
	fmt.Fprintf(w, "%s:\n", label)
	fmt.Fprintf(w, "  requests            %d\n", s.Requests)
	fmt.Fprintf(w, "  duration            %.1f s\n", s.DurationMs/1000)
	fmt.Fprintf(w, "  mean inter-arrival  %.3f ms (CV^2 %.2f)\n", s.MeanInterArrivalMs, s.CV2InterArrival)
	fmt.Fprintf(w, "  read fraction       %.3f\n", s.ReadFraction)
	fmt.Fprintf(w, "  mean size           %.1f sectors (max %d)\n", s.MeanSizeSectors, s.MaxSizeSectors)
	fmt.Fprintf(w, "  sequential fraction %.3f\n", s.SeqFraction)
	fmt.Fprintf(w, "  disks               %d (load CV %.2f)\n", s.Disks, s.DiskLoadCV)
	fmt.Fprintf(w, "  footprint           %.2f GB\n", float64(s.FootprintSectors)*512/1e9)
}
