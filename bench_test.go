package repro_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at a reduced
// request count per iteration and reports the headline quantities the
// paper plots as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced results.
// cmd/idpbench regenerates the same tables at full scale with formatted
// output.

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchRequests keeps a full -bench=. sweep in the minutes range while
// preserving every trend (the experiments package's tests assert the
// trends at the same scale).
const benchRequests = 20000

func benchConfig() experiments.Config {
	return experiments.Config{Requests: benchRequests, Seed: 1}
}

// BenchmarkTable1DriveComparison regenerates Table 1: the modeled power
// of the Barracuda-class drive and its hypothetical 4-actuator
// extension, alongside the published figures for the historical drives.
func BenchmarkTable1DriveComparison(b *testing.B) {
	coeff := power.Default()
	var barracuda, parallel float64
	for i := 0; i < b.N; i++ {
		rows := power.Table1()
		barracuda = rows[3].PowerW(coeff)
		parallel = rows[4].PowerW(coeff)
	}
	b.ReportMetric(barracuda, "barracuda-W")
	b.ReportMetric(parallel, "4actuator-W")
}

// BenchmarkFigure2LimitStudyCDF regenerates Figure 2 for every workload:
// the response-time CDFs of MD versus HC-SD. The reported metric is the
// worst (largest) CDF gap at the 20 ms bucket across workloads.
func BenchmarkFigure2LimitStudyCDF(b *testing.B) {
	var worstGap float64
	for i := 0; i < b.N; i++ {
		worstGap = 0
		for _, w := range trace.Workloads() {
			ls, err := experiments.LimitStudy(w, benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			gap := ls.MD.Resp.FractionAtMost(20) - ls.HCSD.Resp.FractionAtMost(20)
			if gap > worstGap {
				worstGap = gap
			}
		}
	}
	b.ReportMetric(worstGap, "worst-CDF20-gap")
}

// BenchmarkFigure3PowerGap regenerates Figure 3: the MD versus HC-SD
// average power bars. The reported metric is the Financial power ratio
// (the paper reports an order of magnitude).
func BenchmarkFigure3PowerGap(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ls, err := experiments.LimitStudy(trace.Financial(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ratio = ls.MD.Power.Total() / ls.HCSD.Power.Total()
	}
	b.ReportMetric(ratio, "MD/HC-SD-power")
}

// BenchmarkFigure4Bottleneck regenerates Figure 4's bottleneck analysis
// for every workload. The reported metric is the mean advantage of
// (1/2)R over (1/2)S at the 10 ms bucket — positive means rotational
// latency is the primary bottleneck, the paper's central finding.
func BenchmarkFigure4Bottleneck(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		advantage = 0
		for _, w := range trace.Workloads() {
			bt, err := experiments.Bottleneck(w, benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			var halfS, halfR float64
			for _, c := range bt.Cases {
				switch c.Label {
				case "(1/2)S":
					halfS = c.Resp.FractionAtMost(10)
				case "(1/2)R":
					halfR = c.Resp.FractionAtMost(10)
				}
			}
			advantage += (halfR - halfS) / 4
		}
	}
	b.ReportMetric(advantage, "halfR-minus-halfS")
}

// BenchmarkFigure5MultiActuator regenerates Figure 5: HC-SD-SA(n)
// response CDFs and rotational-latency PDFs for all workloads. The
// reported metrics are the Websearch SA(4)/SA(1) improvement at 10 ms
// and the SA(4) mean rotational latency.
func BenchmarkFigure5MultiActuator(b *testing.B) {
	var improvement, rot4 float64
	for i := 0; i < b.N; i++ {
		for _, w := range trace.Workloads() {
			ma, err := experiments.MultiActuator(w, benchConfig(), 4)
			if err != nil {
				b.Fatal(err)
			}
			if w.Name == "Websearch" {
				improvement = ma.Runs[3].Resp.FractionAtMost(10) - ma.Runs[0].Resp.FractionAtMost(10)
				rot4 = ma.Runs[3].RotLat.Mean()
			}
		}
	}
	b.ReportMetric(improvement, "SA4-SA1-CDF10")
	b.ReportMetric(rot4, "SA4-mean-rot-ms")
}

// BenchmarkFigure6ReducedRPMPower regenerates Figure 6: average power of
// the SA(2)/SA(4) designs at 7200/6200/5200/4200 RPM. The reported
// metric is the power of SA(4)/4200 relative to the 7200 RPM HC-SD for
// TPC-C (the paper: comparable to or below a conventional drive).
func BenchmarkFigure6ReducedRPMPower(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rr, err := experiments.ReducedRPM(trace.TPCC(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rr.Runs {
			if r.Label == "SA(4)/4200" {
				rel = r.Power.Total() / rr.HCSD.Power.Total()
			}
		}
	}
	b.ReportMetric(rel, "SA4-4200-vs-HCSD-power")
}

// BenchmarkFigure7ReducedRPMCDF regenerates Figure 7: the reduced-RPM
// designs' response CDFs against MD. The reported metric is the
// Websearch SA(4)/6200 CDF at 10 ms minus MD's (≈0 means break-even).
func BenchmarkFigure7ReducedRPMCDF(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		rr, err := experiments.ReducedRPM(trace.Websearch(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rr.Runs {
			if r.Label == "SA(4)/6200" {
				delta = r.Resp.FractionAtMost(10) - rr.MD.Resp.FractionAtMost(10)
			}
		}
	}
	b.ReportMetric(delta, "SA4-6200-minus-MD-CDF10")
}

// BenchmarkFigure8RAIDArrays regenerates Figure 8: 90th-percentile
// response versus array size for conventional and intra-disk parallel
// drives, plus the iso-performance power comparison. Reported metrics:
// the heavy-load iso-performance power saving of the SA(2) family (the
// paper reports 41%) and of the SA(4) family (the paper reports 60%).
func BenchmarkFigure8RAIDArrays(b *testing.B) {
	var save2, save4 float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunRAIDStudy(benchConfig(), experiments.RAIDStudyOpts{
			DiskCounts:  []int{2, 4, 8, 16},
			Families:    []int{1, 2, 4},
			Intensities: []workload.Intensity{workload.Heavy},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, be := range rs.IsoPerformance() {
			var conv, sa2, sa4 float64
			for _, c := range be.Configs {
				switch c.Actuators {
				case 1:
					conv = c.PowerW
				case 2:
					sa2 = c.PowerW
				case 4:
					sa4 = c.PowerW
				}
			}
			if conv > 0 && sa2 > 0 {
				save2 = 1 - sa2/conv
			}
			if conv > 0 && sa4 > 0 {
				save4 = 1 - sa4/conv
			}
		}
	}
	b.ReportMetric(save2*100, "SA2-power-saving-%")
	b.ReportMetric(save4*100, "SA4-power-saving-%")
}

// BenchmarkPartitionedRAID runs the 64-drive partitioned-array scale
// scenario (experiments.LPRAID) on the conservative windowed engine,
// sequentially (one worker) and with a worker per core, healthy and
// degraded (RAID-5 with a member death and a rebuild under load). The
// simulated results are byte-identical between seq and par — only
// wall-clock time may differ, and only when cores are available: ns/op
// of par vs seq IS the measured speedup on the machine running the
// benchmark. The avg-busy-LPs metric is the engine-invariant
// parallelism actually available per synchronization window (so the
// speedup ceiling), which a single-core CI box reports identically to a
// 64-core one.
func BenchmarkPartitionedRAID(b *testing.B) {
	for _, bc := range []struct {
		name     string
		workers  int
		degraded bool
	}{
		{"seq", 1, false},
		{"par", runtime.GOMAXPROCS(0), false},
		{"degraded-seq", 1, true},
		{"degraded-par", runtime.GOMAXPROCS(0), true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			var r *experiments.LPRAIDResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiments.LPRAID(benchConfig(), experiments.LPRAIDOpts{Workers: bc.workers, Degraded: bc.degraded})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Resp.Percentile(90), "p90-ms")
			b.ReportMetric(float64(r.BusyLPs)/float64(r.Windows), "avg-busy-LPs")
		})
	}
}

// BenchmarkTable9aCosts regenerates Table 9a's drive material costs.
func BenchmarkTable9aCosts(b *testing.B) {
	var conv, sa2, sa4 cost.Range
	for i := 0; i < b.N; i++ {
		var err error
		if conv, err = cost.DriveCost(4, 1); err != nil {
			b.Fatal(err)
		}
		if sa2, err = cost.DriveCost(4, 2); err != nil {
			b.Fatal(err)
		}
		if sa4, err = cost.DriveCost(4, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(conv.Mid(), "conventional-$")
	b.ReportMetric(sa2.Mid(), "2actuator-$")
	b.ReportMetric(sa4.Mid(), "4actuator-$")
}

// BenchmarkFigure9bIsoPerfCost regenerates Figure 9(b): the cost of the
// three iso-performance configurations. Reported metrics are the percent
// savings of 2×SA(2) and 1×SA(4) versus 4 conventional drives (the paper
// reports 27% and 40%).
func BenchmarkFigure9bIsoPerfCost(b *testing.B) {
	var save2, save4 float64
	for i := 0; i < b.N; i++ {
		costs, err := cost.IsoPerformanceCosts()
		if err != nil {
			b.Fatal(err)
		}
		base := costs[0].Mid()
		save2 = 100 * (1 - costs[1].Mid()/base)
		save4 = 100 * (1 - costs[2].Mid()/base)
	}
	b.ReportMetric(save2, "2xSA2-saving-%")
	b.ReportMetric(save4, "1xSA4-saving-%")
}

// BenchmarkFleetSweep measures the wall-clock effect of fanning the
// Figure-4-style bottleneck sweep (six scaled HC-SD simulations plus
// the limit study's pair) out across cores via internal/fleet: the
// "serial" sub-benchmark pins the pool to one worker, "parallel" uses
// every core. On a multi-core runner the parallel case should finish
// the same deterministic work at least ~2x faster; ns/op is the number
// the perf trajectory tracks.
func BenchmarkFleetSweep(b *testing.B) {
	for _, bc := range []struct {
		name        string
		parallelism int
		observe     experiments.Observe
	}{
		{"serial", 1, experiments.Observe{}},
		{"parallel", runtime.GOMAXPROCS(0), experiments.Observe{}},
		// Same parallel sweep with full span tracing on: the gap to
		// "parallel" is the observability overhead (budget: < 5%
		// against tracing off; the nil-sink fast path costs a pointer
		// test per emission site).
		{"parallel-traced", runtime.GOMAXPROCS(0), experiments.Observe{Trace: true, Metrics: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := experiments.Config{Requests: benchRequests, Seed: 1, Parallelism: bc.parallelism, Observe: bc.observe}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Bottleneck(trace.Websearch(), cfg); err != nil {
					b.Fatal(err)
				}
				if _, err := experiments.LimitStudy(trace.Websearch(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDriveServiceRate measures raw simulator throughput: simulated
// requests serviced per wall-clock second on one HC-SD-SA(4) drive.
func BenchmarkDriveServiceRate(b *testing.B) {
	eng := repro.NewEngine()
	d, err := repro.NewSADrive(eng, repro.BarracudaES(), 4)
	if err != nil {
		b.Fatal(err)
	}
	lba := int64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba = (lba*6364136223846793005 + 1442695040888963407) % (d.Capacity() - 256)
		if lba < 0 {
			lba = -lba
		}
		at := eng.Now() + 2
		eng.At(at, func() {
			d.Submit(repro.Request{LBA: lba, Sectors: 16, Read: i%2 == 0}, nil)
		})
		eng.Run()
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationScheduler compares dispatch policies on the HC-SD.
// Reported metrics: mean response under FCFS and SPTF (Websearch).
func BenchmarkAblationScheduler(b *testing.B) {
	var fcfs, sptf float64
	for i := 0; i < b.N; i++ {
		runs, err := experiments.SchedulerAblation(trace.Websearch(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			switch r.Label {
			case "FCFS":
				fcfs = r.Resp.Mean()
			case "SPTF":
				sptf = r.Resp.Mean()
			}
		}
	}
	b.ReportMetric(fcfs, "FCFS-mean-ms")
	b.ReportMetric(sptf, "SPTF-mean-ms")
}

// BenchmarkAblationCacheSize reruns §7.1's 64 MB cache what-if.
// Reported metric: relative mean-response change (paper: negligible).
func BenchmarkAblationCacheSize(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		runs, err := experiments.CacheAblation(trace.Websearch(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		rel = (runs[0].Resp.Mean() - runs[1].Resp.Mean()) / runs[0].Resp.Mean()
	}
	b.ReportMetric(rel*100, "64MB-gain-%")
}

// BenchmarkAblationRelaxedDesigns compares base HC-SD-SA(2) with the
// technical report's relaxed variants. Reported metrics: mean response
// of each (paper: the relaxations provide little benefit).
func BenchmarkAblationRelaxedDesigns(b *testing.B) {
	var base, multiArm, multiChan float64
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RelaxedDesignAblation(trace.TPCC(), benchConfig(), 2)
		if err != nil {
			b.Fatal(err)
		}
		base = runs[0].Resp.Mean()
		multiArm = runs[1].Resp.Mean()
		multiChan = runs[2].Resp.Mean()
	}
	b.ReportMetric(base, "base-mean-ms")
	b.ReportMetric(multiArm, "multiarm-mean-ms")
	b.ReportMetric(multiChan, "multichan-mean-ms")
}

// BenchmarkAblationAngularPlacement quantifies the diagonal mounting of
// the arm assemblies (Figure 1): co-locating all arms at one angular
// position erases most of the rotational-latency gain.
func BenchmarkAblationAngularPlacement(b *testing.B) {
	var spreadRot, colocRot float64
	for i := 0; i < b.N; i++ {
		spread, colocated, err := experiments.PlacementAblation(trace.Websearch(), benchConfig(), 4)
		if err != nil {
			b.Fatal(err)
		}
		spreadRot = spread.RotLat.Mean()
		colocRot = colocated.RotLat.Mean()
	}
	b.ReportMetric(spreadRot, "diagonal-rot-ms")
	b.ReportMetric(colocRot, "colocated-rot-ms")
}

// BenchmarkAltPowerKnobs compares DRPM (the related-work power knob)
// against the reduced-RPM SA(4) design on Websearch. Reported metrics:
// mean response and average power of each approach.
func BenchmarkAltPowerKnobs(b *testing.B) {
	var drpmMean, drpmW, saMean, saW float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AltPower(trace.Websearch(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		drpmMean, drpmW = r.DRPM.Resp.Mean(), r.DRPM.Power.Total()
		saMean, saW = r.SA4Low.Resp.Mean(), r.SA4Low.Power.Total()
	}
	b.ReportMetric(drpmMean, "DRPM-mean-ms")
	b.ReportMetric(drpmW, "DRPM-W")
	b.ReportMetric(saMean, "SA4-5200-mean-ms")
	b.ReportMetric(saW, "SA4-5200-W")
}
