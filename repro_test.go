package repro_test

import (
	"testing"

	"repro"
)

// These tests exercise the public facade end-to-end, the way an
// application would use the library.

func TestQuickstartFlow(t *testing.T) {
	eng := repro.NewEngine()
	drv, err := repro.NewSADrive(eng, repro.BarracudaES(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := drv.Taxonomy().String(); got != "D1A4S1H1" {
		t.Fatalf("taxonomy %s", got)
	}
	var resp repro.Sample
	for i := 0; i < 100; i++ {
		lba := int64(i) * 1e6
		at := float64(i) * 10
		eng.At(at, func() {
			drv.Submit(repro.Request{LBA: lba, Sectors: 16, Read: true},
				func(done float64) { resp.Add(done - at) })
		})
	}
	eng.Run()
	if resp.Count() != 100 {
		t.Fatalf("completed %d of 100", resp.Count())
	}
	if resp.Mean() <= 0 || resp.Mean() > 50 {
		t.Fatalf("mean response %v implausible", resp.Mean())
	}
	b := drv.Power(eng.Now())
	if b.Total() <= 0 {
		t.Fatalf("power %v", b.Total())
	}
}

func TestWorkloadsRoundTrip(t *testing.T) {
	if len(repro.Workloads()) != 4 {
		t.Fatalf("want the paper's four workloads")
	}
	g, err := repro.NewTraceGenerator(repro.Websearch().WithRequests(500), 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := repro.AnalyzeTraceStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 500 || st.Disks != 6 {
		t.Fatalf("bad trace: %+v", st)
	}
}

func TestSyntheticWorkload(t *testing.T) {
	spec := repro.PaperSynthetic(repro.Heavy, 1<<26).WithRequests(1000)
	g, err := repro.NewSyntheticGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := g.Next(); ok; _, ok = g.Next() {
		n++
	}
	if n != 1000 {
		t.Fatalf("generated %d", n)
	}
}

func TestArrayOfParallelDrives(t *testing.T) {
	eng := repro.NewEngine()
	members := make([]repro.Device, 4)
	var capacity int64
	for i := range members {
		d, err := repro.NewSADrive(eng, repro.BarracudaES(), 2)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = d
		capacity = d.Capacity()
	}
	layout, err := repro.NewRAID0(4, capacity, 128)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := repro.NewArray(layout, members)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 200; i++ {
		lba := int64(i) * 100000
		eng.At(float64(i), func() {
			arr.Submit(repro.Request{LBA: lba, Sectors: 64, Read: i%3 != 0},
				func(float64) { done++ })
		})
	}
	eng.Run()
	if done != 200 {
		t.Fatalf("completed %d of 200", done)
	}
	if arr.Power(eng.Now()).Total() <= 0 {
		t.Fatalf("array power missing")
	}
}

func TestConventionalDriveWithScaling(t *testing.T) {
	eng := repro.NewEngine()
	d, err := repro.NewDrive(eng, repro.BarracudaES(), repro.DriveOptions{
		RotScale: repro.ZeroedScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	var at float64
	eng.At(0, func() {
		d.Submit(repro.Request{LBA: 12345678, Sectors: 8, Read: false},
			func(done float64) { at = done })
	})
	eng.Run()
	if at <= 0 {
		t.Fatalf("request never completed")
	}
}

func TestDASHParsing(t *testing.T) {
	d, err := repro.ParseDASH("D1A2S1H2")
	if err != nil {
		t.Fatal(err)
	}
	if d.DataPaths() != 4 {
		t.Fatalf("paths %d", d.DataPaths())
	}
	if repro.SATaxonomy(3).String() != "D1A3S1H1" {
		t.Fatalf("SA taxonomy wrong")
	}
}

func TestCostFacade(t *testing.T) {
	r, err := repro.DriveCost(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Low < 150 || r.High > 200 {
		t.Fatalf("4-actuator drive cost %v", r)
	}
	iso, err := repro.IsoPerformanceCosts()
	if err != nil || len(iso) != 3 {
		t.Fatalf("iso costs: %v %v", iso, err)
	}
}

func TestExperimentFacade(t *testing.T) {
	cfg := repro.ExperimentConfig{Requests: 2000, Seed: 1}
	ls, err := repro.RunLimitStudy(repro.TPCH(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.MD.Resp.Count() != 2000 {
		t.Fatalf("MD responses %d", ls.MD.Resp.Count())
	}
	if repro.DefaultExperimentConfig().Requests <= 0 {
		t.Fatalf("default config broken")
	}
}

func TestSMARTFacade(t *testing.T) {
	eng := repro.NewEngine()
	drv, err := repro.NewSADrive(eng, repro.BarracudaES(), 2)
	if err != nil {
		t.Fatal(err)
	}
	monitors := []*repro.SMARTMonitor{
		repro.NewSMARTMonitor(1, nil),
		repro.NewSMARTMonitor(2, nil),
	}
	if err := monitors[1].BeginDegrading(repro.SeekErrorRate, 0.01); err != nil {
		t.Fatal(err)
	}
	failed := -1
	sentry, err := repro.NewSMARTSentry(eng, monitors, 100, func(i int) {
		failed = i
		if err := drv.FailArm(i); err != nil {
			t.Errorf("FailArm: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sentry.Start(5000)
	eng.Run()
	if failed != 1 || drv.HealthyArms() != 1 {
		t.Fatalf("failed=%d healthy=%d", failed, drv.HealthyArms())
	}
}

func TestThermalFacade(t *testing.T) {
	e := repro.DefaultThermalEnvelope()
	eng := repro.NewEngine()
	d, err := repro.NewSADrive(eng, repro.BarracudaES(), 4)
	if err != nil {
		t.Fatal(err)
	}
	temp, ok := e.CheckModel(d.PowerModel())
	if !ok {
		t.Fatalf("4-actuator drive outside envelope at %.1f C", temp)
	}
}

func TestRebuildFacade(t *testing.T) {
	eng := repro.NewEngine()
	members := make([]repro.Device, 3)
	var capacity int64
	for i := range members {
		d, err := repro.NewSADrive(eng, repro.BarracudaES(), 1)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = d
		capacity = d.Capacity()
	}
	layout, err := repro.NewRAID5(3, capacity, 128)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := repro.NewArray(layout, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.FailMember(1); err != nil {
		t.Fatal(err)
	}
	// Rebuild a sliver of the extent would take forever on the full
	// 750 GB member; this test uses a tiny chunk count by rebuilding a
	// synthetic small array instead.
	small := make([]repro.Device, 3)
	engS := repro.NewEngine()
	m := repro.BarracudaES()
	m.Geom.Cylinders = 200
	m.Geom.Zones = 2
	m.Geom.OuterSPT = 100
	m.Geom.InnerSPT = 80
	var smallCap int64
	for i := range small {
		d, err := repro.NewSADrive(engS, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		small[i] = d
		smallCap = d.Capacity()
	}
	layoutS, err := repro.NewRAID5(3, smallCap, 128)
	if err != nil {
		t.Fatal(err)
	}
	arrS, err := repro.NewArray(layoutS, small)
	if err != nil {
		t.Fatal(err)
	}
	if err := arrS.FailMember(2); err != nil {
		t.Fatal(err)
	}
	var copied int64
	engS.At(0, func() {
		if err := arrS.Rebuild(2, 4096, 2, func(n int64) { copied = n }); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
	})
	engS.Run()
	if copied == 0 || arrS.Degraded() {
		t.Fatalf("rebuild incomplete: copied=%d degraded=%v", copied, arrS.Degraded())
	}
}

func TestDRPMAndBusFacade(t *testing.T) {
	eng := repro.NewEngine()
	dd, err := repro.NewDRPMDrive(eng, repro.BarracudaES(), repro.DRPMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.NewBus(eng, 300, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := repro.AttachBus(dd, b, 512)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			lba := int64(i) * 1e6
			dev.Submit(repro.Request{LBA: lba, Sectors: 16, Read: true},
				func(float64) { done++ })
		}
	})
	eng.Run()
	if done != 10 {
		t.Fatalf("completed %d of 10 through bus-attached DRPM drive", done)
	}
	if b.Transfers() != 10 {
		t.Fatalf("bus carried %d transfers", b.Transfers())
	}
}

func TestClosedLoopFacade(t *testing.T) {
	eng := repro.NewEngine()
	d, err := repro.NewSADrive(eng, repro.BarracudaES(), 2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := repro.RunClosedLoop(eng, d, 2, 50, 1, func(c, s int) repro.Request {
		return repro.Request{LBA: int64(s) * 1e6, Sectors: 8, Read: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count() != 50 {
		t.Fatalf("closed loop completed %d of 50", resp.Count())
	}
}
