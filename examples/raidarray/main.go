// Raidarray reproduces the paper's §7.3 scenario: build RAID-0 arrays
// from conventional versus intra-disk parallel drives, drive them with
// the synthetic workload, and compare how many disks (and watts) each
// family needs to reach the same 90th-percentile response time.
package main

import (
	"flag"
	"fmt"

	"repro"
)

func main() {
	requests := flag.Int("requests", 30000, "requests per array run")
	interArrival := flag.Float64("ia", 4, "mean inter-arrival ms (8=light, 4=moderate, 1=heavy)")
	flag.Parse()

	var intensity repro.Intensity
	switch *interArrival {
	case 8:
		intensity = repro.Light
	case 1:
		intensity = repro.Heavy
	default:
		intensity = repro.Moderate
	}

	model := repro.BarracudaES()
	// The dataset spans one drive's capacity in every array size.
	capacity, err := model.Sectors()
	if err != nil {
		panic(err)
	}
	spec := repro.PaperSynthetic(intensity, capacity).WithRequests(*requests)
	if err := spec.Validate(); err != nil {
		panic(err)
	}

	fmt.Printf("synthetic workload: %s inter-arrival, 60%% reads, 20%% sequential\n\n", intensity)
	fmt.Printf("%-14s %6s %12s %10s\n", "drive family", "disks", "p90 (ms)", "power (W)")
	for _, actuators := range []int{1, 2, 4} {
		for _, disks := range []int{2, 4, 8} {
			eng := repro.NewEngine()
			members := make([]repro.Device, disks)
			for i := range members {
				d, err := repro.NewSADrive(eng, model, actuators)
				if err != nil {
					panic(err)
				}
				members[i] = d
			}
			layout, err := repro.NewRAID0(disks, capacity, 128)
			if err != nil {
				panic(err)
			}
			arr, err := repro.NewArray(layout, members)
			if err != nil {
				panic(err)
			}
			// Every array replays the same stream: a fresh generator
			// from the same seed.
			g, err := repro.NewSyntheticGenerator(spec, 1)
			if err != nil {
				panic(err)
			}
			var resp repro.Sample
			for r, ok := g.Next(); ok; r, ok = g.Next() {
				eng.At(r.ArrivalMs, func() {
					arr.Submit(r, func(at float64) { resp.Add(at - r.ArrivalMs) })
				})
			}
			eng.Run()

			family := "conventional"
			if actuators > 1 {
				family = fmt.Sprintf("HC-SD-SA(%d)", actuators)
			}
			fmt.Printf("%-14s %6d %12.2f %10.1f\n",
				family, disks, resp.Percentile(90), arr.Power(eng.Now()).Total())
		}
	}
}
