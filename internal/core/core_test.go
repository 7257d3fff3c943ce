package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"blockhead/internal/ftl"
	"blockhead/internal/offload"
	"blockhead/internal/placement"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
)

var quickCfg = Config{Quick: true, Seed: 42}

func offloadDefault() offload.CostModel { return offload.DefaultCostModel() }

func singleStream() placement.Policy { return placement.SingleStream{} }
func byClass8() placement.Policy     { return placement.ByClass{K: 8, Classes: 8} }
func oracle8() placement.Policy      { return placement.Oracle{K: 8, Base: 8 * sim.Millisecond} }

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	if len(all) < len(want) {
		t.Fatalf("registered %d experiments, want >= %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].PaperClaim == "" || all[i].Run == nil {
			t.Errorf("%s: incomplete registration", id)
		}
	}
	if _, ok := ByID("e5"); !ok {
		t.Error("ByID must be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("phantom experiment found")
	}
}

func TestReportFormat(t *testing.T) {
	r := Report{ID: "X", Title: "t", PaperClaim: "c", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("n %d", 5)
	out := r.Format()
	for _, needle := range []string{"=== X: t ===", "paper: c", "a", "bb", "n 5"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Format missing %q in:\n%s", needle, out)
		}
	}
}

// Every experiment must run cleanly in quick mode.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(quickCfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s: empty report", e.ID)
			}
			if rep.Format() == "" {
				t.Fatalf("%s: empty format", e.ID)
			}
		})
	}
}

// E2: the paper's §2.2 shape — ~15x at no OP falling to ~2.5x at 25%.
func TestE2Shape(t *testing.T) {
	wa0, _, err := E2Point(0, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	wa25, _, err := E2Point(0.25, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if wa0 < 10 || wa0 > 20 {
		t.Errorf("WA at 0%% OP = %.2f, want ~15 (paper)", wa0)
	}
	if wa25 < 1.7 || wa25 > 3.2 {
		t.Errorf("WA at 25%% OP = %.2f, want ~2.5 (paper)", wa25)
	}
	if wa25 >= wa0 {
		t.Error("WA must fall with OP")
	}
}

// E4: ZNS wins on latency and throughput (paper: 60% lower mean, ~3x tput).
func TestE4Shape(t *testing.T) {
	conv, err := E4Conventional(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	z, err := E4ZNS(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if z.WritePagesPS <= 2*conv.WritePagesPS {
		t.Errorf("zns tput %.0f must be well above conv %.0f", z.WritePagesPS, conv.WritePagesPS)
	}
	if float64(z.ReadMean) >= 0.5*float64(conv.ReadMean) {
		t.Errorf("zns read mean %v must be under half of conv %v", z.ReadMean, conv.ReadMean)
	}
	if z.ReadP99 >= conv.ReadP99 {
		t.Error("zns read p99 must beat conv")
	}
}

// E5: device WA gap (paper: 5x -> 1.2x), read tail (paper: 2-4x lower) and
// write throughput (paper: 2x higher). At -quick ZNS's p99 is 6.5-7.1x
// below the conventional backend's, and its throughput is 1.39x, 1.42x and
// 1.43x the conventional backend's at seeds 42, 7 and 13: the model gives
// ZNS the higher throughput, not the paper's factor of 2, and the band
// [1.3, 1.55] holds that answer at every seed.
func TestE5Shape(t *testing.T) {
	for _, seed := range []int64{42, 7, 13} {
		cfg := Config{Quick: true, Seed: seed}
		conv, err := E5Conventional(cfg)
		if err != nil {
			t.Fatal(err)
		}
		z, err := E5ZNS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if z.DeviceWA >= conv.DeviceWA {
			t.Errorf("seed %d: zns WA %.2f must be below conv %.2f", seed, z.DeviceWA, conv.DeviceWA)
		}
		if z.DeviceWA > 1.3 {
			t.Errorf("seed %d: zns WA = %.2f, want near the paper's 1.2", seed, z.DeviceWA)
		}
		if z.ReadP99 >= conv.ReadP99 {
			t.Errorf("seed %d: zns read p99 %v must be below conv %v", seed, z.ReadP99, conv.ReadP99)
		}
		if r := z.WriteBytesPS / conv.WriteBytesPS; r < 1.3 || r > 1.55 {
			t.Errorf("seed %d: zns/conv write throughput = %.2fx, want in [1.3, 1.55]", seed, r)
		}
	}
}

// TestE5PartFreesItsStack: once E5's conventional part has returned, its
// device is garbage, so the ZNS part never runs beside it or the table
// segments only it keeps alive. A part that captured a stack built outside
// it would keep the device reachable here. The device is held weakly: its
// full segments live in slab chunks outside the Go heap, which HeapAlloc
// does not see and which are unmapped once the device is collected. The
// heap the part holds at its end (about 1.4 MB after a collection, at
// -quick and seed 42, beside 8.2 MB of segments in slab slots) must be
// gone too: about 0.1 MB is left when the next part starts.
func TestE5PartFreesItsStack(t *testing.T) {
	setWorkers(t, 1)
	var dev weak.Pointer[ftl.Device]
	e5Built = func(d *ftl.Device) { dev = weak.Make(d) }
	t.Cleanup(func() { e5Built = nil })
	var conv, z E5Result
	parts := e5Parts(&conv, &z)
	var heap uint64
	var live bool
	measure := partTask{run: func(Config) error {
		runtime.GC()
		live = dev.Value() != nil
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
		return nil
	}}
	if err := runParts(quickCfg, parts[0], measure); err != nil {
		t.Fatal(err)
	}
	if dev == (weak.Pointer[ftl.Device]{}) {
		t.Fatal("E5's first part built no device")
	}
	if live {
		t.Error("E5's first part's device was still reachable when the next part started")
	}
	const limit = 1 << 20
	if heap >= limit {
		t.Errorf("heap after E5's first part = %d bytes, want under %d", heap, limit)
	}
}

// E6: host-scheduled GC wins on tails and throughput (paper: 22x, +65%).
func TestE6Shape(t *testing.T) {
	conv, err := E6Conventional(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	host, err := E6HostFTL(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(host.ReadP999) >= 0.5*float64(conv.ReadP999) {
		t.Errorf("host p999 %v must be well below conv %v", host.ReadP999, conv.ReadP999)
	}
	if host.WritePagesPS <= conv.WritePagesPS {
		t.Errorf("host tput %.0f must beat conv %.0f", host.WritePagesPS, conv.WritePagesPS)
	}
	if host.WA >= conv.WA {
		t.Errorf("host WA %.2f must be below conv %.2f", host.WA, conv.WA)
	}
}

// A5: pacing its own GC helps a conventional device's read tails but costs
// it write amplification, and the host still wins both: its p999 is about a
// tenth of the paced device's at seeds 42 and 7 and 4.8x below it at seed
// 13 (12.3 against 59.6 ms), hence the factor of 4. This holds at full size
// only: at -quick (seed 42) the first ordering inverts, with foreground
// GC's p999 at 68.0 ms against device-incremental GC's 93.2 ms.
func TestA5Shape(t *testing.T) {
	for _, seed := range []int64{42, 7, 13} {
		cfg := Config{Seed: seed}
		fg, err := E6Conventional(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := E6ConventionalIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		host, err := E6HostFTL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if inc.ReadP999 >= fg.ReadP999 {
			t.Errorf("seed %d: paced device p999 %v must beat foreground GC's %v", seed, inc.ReadP999, fg.ReadP999)
		}
		if inc.WA <= fg.WA {
			t.Errorf("seed %d: paced device WA %.2f must exceed foreground GC's %.2f", seed, inc.WA, fg.WA)
		}
		if 4*host.ReadP999 > inc.ReadP999 {
			t.Errorf("seed %d: host p999 %v must be at most a quarter of the paced device's %v", seed, host.ReadP999, inc.ReadP999)
		}
		if host.WA >= inc.WA {
			t.Errorf("seed %d: host WA %.2f must be below the paced device's %.2f", seed, host.WA, inc.WA)
		}
	}
}

// E14: the host stack holds every tenant's SLO; the conventional stack,
// whose GC lands on whoever is running, holds fewer.
func TestE14Shape(t *testing.T) {
	held := func(rs []telemetry.SLOResult) int {
		n := 0
		for _, r := range rs {
			if r.OK {
				n++
			}
		}
		return n
	}
	for _, seed := range []int64{quickCfg.Seed, 7, 13} {
		cfg := quickCfg
		cfg.Seed = seed
		conv, err := E14Conventional(cfg)
		if err != nil {
			t.Fatal(err)
		}
		host, err := E14HostFTL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(host.SLO) == 0 || held(host.SLO) != len(host.SLO) {
			t.Errorf("seed %d: host stack holds %d/%d SLOs, want all", seed, held(host.SLO), len(host.SLO))
		}
		if held(conv.SLO) >= held(host.SLO) {
			t.Errorf("seed %d: conventional stack holds %d SLOs, want fewer than the host's %d", seed, held(conv.SLO), held(host.SLO))
		}
	}
}

// E7: writes serialize; appends scale toward the 8-LUN stripe limit.
func TestE7Shape(t *testing.T) {
	dur := 500 * 1000 * 1000 // 500ms in sim.Time units
	w1, err := E7Throughput(1, false, 500000000)
	if err != nil {
		t.Fatal(err)
	}
	w16, err := E7Throughput(16, false, 500000000)
	if err != nil {
		t.Fatal(err)
	}
	a16, err := E7Throughput(16, true, 500000000)
	if err != nil {
		t.Fatal(err)
	}
	_ = dur
	if w16 > 1.2*w1 {
		t.Errorf("16 writers with WP lock (%.0f) must not scale past 1 writer (%.0f)", w16, w1)
	}
	if a16 < 6*w1 {
		t.Errorf("16 appenders (%.0f) must approach 8x one writer (%.0f)", a16, w1)
	}
}

// E8: dynamic zone assignment multiplexes bursts.
func TestE8Shape(t *testing.T) {
	static, err := E8Run(StaticZones, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := E8Run(DynamicZones, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.BurstP50 >= static.BurstP50 {
		t.Errorf("dynamic burst p50 %v must beat static %v", dynamic.BurstP50, static.BurstP50)
	}
	if dynamic.PagesPerSS <= static.PagesPerSS {
		t.Errorf("dynamic throughput %.0f must beat static %.0f", dynamic.PagesPerSS, static.PagesPerSS)
	}
}

// E9: more lifetime information means less copying; the oracle is best.
func TestE9Shape(t *testing.T) {
	single, err := E9Run(singleStream(), 0.3, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	byClass, err := E9Run(byClass8(), 0.3, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := E9Run(oracle8(), 0.3, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if byClass >= single {
		t.Errorf("by-class WA %.3f must beat single-stream %.3f", byClass, single)
	}
	if oracle > byClass+0.01 {
		t.Errorf("oracle WA %.3f must not lose to by-class %.3f", oracle, byClass)
	}
	if oracle > 1.05 {
		t.Errorf("oracle WA = %.3f, want ~1.0", oracle)
	}
}

// E10: simple copy removes PCIe relocation traffic at equal performance.
func TestE10Shape(t *testing.T) {
	conv, err := E10Conv(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	hostCopy, err := E10HostFTL(false, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := E10HostFTL(true, quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.PCIePerHostKB >= hostCopy.PCIePerHostKB {
		t.Error("simple copy must reduce PCIe bytes")
	}
	if sc.PCIePerHostKB > 1.01 {
		t.Errorf("simple-copy PCIe per host byte = %.2f, want ~1 (only host data moves)", sc.PCIePerHostKB)
	}
	// "Performance comparable to conventional SSDs" (§2.3).
	ratio := sc.WritePagesPS / conv.WritePagesPS
	if ratio < 0.6 || ratio > 1.8 {
		t.Errorf("block-on-ZNS throughput ratio vs conventional = %.2f, want comparable", ratio)
	}
}

// E12: the §2.1 physics and parallel scaling.
func TestE12Shape(t *testing.T) {
	r := E12EraseProgramRatio(3) // TLC
	if r < 5.5 || r > 6.5 {
		t.Errorf("TLC erase/program ratio = %.2f, want ~6", r)
	}
	t1, err := E12SequentialThroughput(1)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := E12SequentialThroughput(8)
	if err != nil {
		t.Fatal(err)
	}
	if t8 < 6*t1 {
		t.Errorf("8-LUN throughput %.0f must approach 8x 1-LUN %.0f", t8, t1)
	}
}

// X1: on the same endurance-limited flash, the zone log must outlive the
// conventional device substantially.
func TestX1Shape(t *testing.T) {
	conv, err := X1Conventional(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	z, err := X1ZNS(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(z) / float64(conv)
	if ratio < 1.5 {
		t.Errorf("lifetime ratio = %.2f, want well above 1 (paper: WA burns endurance)", ratio)
	}
}

// X2: streams must reduce conventional WA; ZNS must not lose to the
// streamed conventional device at matched spare.
func TestX2Shape(t *testing.T) {
	e, ok := ByID("X2")
	if !ok {
		t.Fatal("X2 not registered")
	}
	rep, err := e.Run(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("X2 rows = %d", len(rep.Rows))
	}
	parse := func(s string) float64 {
		var f float64
		fmt.Sscanf(s, "%f", &f)
		return f
	}
	noStream, streamed, zns := parse(rep.Rows[0][1]), parse(rep.Rows[1][1]), parse(rep.Rows[2][1])
	if streamed >= noStream {
		t.Errorf("streams must reduce WA: %.2f vs %.2f", streamed, noStream)
	}
	if zns > streamed*1.15 {
		t.Errorf("zns WA %.2f must not lose to streamed conventional %.2f", zns, streamed)
	}
}

// X5: the offload break-even exists and sits between the low- and
// high-rate regimes.
func TestX5Shape(t *testing.T) {
	w, err := X5MeasureWork(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.MapOps < 1 {
		t.Errorf("map ops per request = %.2f, want >= 1 (every write updates the map)", w.MapOps)
	}
	m := offloadDefault()
	be := m.BreakEvenReqPerSec(w)
	if be <= 0 {
		t.Fatal("no break-even found with the default cost model")
	}
	if m.HostUSD(w, be/4) >= m.SoCUSD(w, be/4) {
		t.Error("host must be cheaper well below break-even")
	}
	if m.HostUSD(w, be*4) <= m.SoCUSD(w, be*4) {
		t.Error("SoC must be cheaper well above break-even")
	}
}

// X2's workload generator: the group weights must fall off geometrically
// and every LBA must land inside its group's region.
func TestX2KeyDistribution(t *testing.T) {
	src := workload.NewSource(3)
	const capacity = 80000
	counts := make([]int, x2Groups)
	for i := 0; i < 200000; i++ {
		lpn, g := x2Key(src, capacity)
		if g < 0 || g >= x2Groups {
			t.Fatalf("group %d out of range", g)
		}
		region := int64(capacity / x2Groups)
		if lpn < int64(g)*region || lpn >= int64(g+1)*region {
			t.Fatalf("lpn %d outside group %d's region", lpn, g)
		}
		counts[g]++
	}
	// Group g should get roughly twice the traffic of group g+1.
	for g := 0; g+1 < 4; g++ { // tails are noisy; check the hot groups
		ratio := float64(counts[g]) / float64(counts[g+1])
		if ratio < 1.6 || ratio > 2.4 {
			t.Errorf("group %d/%d traffic ratio = %.2f, want ~2", g, g+1, ratio)
		}
	}
}
