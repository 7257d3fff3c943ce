package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "X3",
		Title:      "Extension: systematic search for workloads that regress on ZNS (§4.2)",
		PaperClaim: "\"Can we systematically test representative and synthetic workloads to discover if any perform worse over ZNS?\" — the known case is multi-writer single-zone, fixed by append",
		Run:        runX3,
	})
}

func x3Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

// x3Row is one workload's comparison: pages/s through the conventional
// device vs. the best-practice ZNS equivalent.
type x3Row struct {
	workload string
	conv     float64
	zns      float64
	note     string
}

// x3ClosedLoop drives n workers against op until the virtual deadline and
// returns pages/second.
func x3ClosedLoop(n int, op OpFunc, dur sim.Time) (float64, error) {
	res := RunMixed(MixedCfg{Writers: n, Write: op, Duration: dur,
		Src: workload.NewSource(1)})
	if res.Err != nil {
		return 0, res.Err
	}
	return res.WriteScale, nil
}

func runX3(cfg Config) (Report, error) {
	r := Report{
		ID:         "X3",
		Title:      "Workload sweep: conventional vs ZNS-native",
		PaperClaim: "most workloads match or win on ZNS; the write-pointer bottleneck is the known regression, and append removes it",
		Header:     []string{"Workload", "Conv pages/s", "ZNS pages/s", "ZNS/conv", "Verdict"},
	}
	dur := 2 * sim.Second
	if cfg.Quick {
		dur = 400 * sim.Millisecond
	}
	lat := flash.LatenciesFor(flash.TLC)
	// One part per workload block, each on its own stacks; the rows follow
	// in block order.
	blocks := []func(Config, flash.Latencies, sim.Time) ([]x3Row, error){
		x3Sequential, x3RandomOverwrite, x3SharedLog, x3RandomReads,
	}
	blockRows := make([][]x3Row, len(blocks))
	tasks := make([]partTask, len(blocks))
	for i, block := range blocks {
		tasks[i] = part(&blockRows[i], func(c Config) ([]x3Row, error) {
			return block(c, lat, dur)
		})
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for _, rows := range blockRows {
		for _, row := range rows {
			r.AddRow(row.workload, fmt.Sprintf("%.0f", row.conv), fmt.Sprintf("%.0f", row.zns),
				fmt.Sprintf("%.2fx", row.zns/row.conv), row.note)
		}
	}
	r.AddNote("a ratio well below 1.00x marks a workload that performs worse over ZNS;")
	r.AddNote("the sweep rediscovers the paper's write-pointer case and its append fix")
	return r, nil
}

// x3Sequential: sequential streaming write, 4 writers to disjoint regions.
func x3Sequential(cfg Config, lat flash.Latencies, dur sim.Time) ([]x3Row, error) {
	conv, err := ftl.NewDefault(x3Geometry(), lat, 0.07)
	if err != nil {
		return nil, err
	}
	region := conv.CapacityPages() / 4
	var next [4]int64
	w := 0
	convRate, err := x3ClosedLoop(4, func(t sim.Time) (sim.Time, error) {
		me := w % 4
		w++
		lpn := int64(me)*region + next[me]%region
		next[me]++
		return conv.WritePage(t, lpn, nil)
	}, dur)
	if err != nil {
		return nil, err
	}
	zd, err := zns.New(zns.Config{Geom: x3Geometry(), Lat: lat, ZoneBlocks: 1})
	if err != nil {
		return nil, err
	}
	// Each writer owns a rotating set of zones (FIFO log per writer).
	var zone [4]int
	for i := range zone {
		zone[i] = i
	}
	wz := 0
	znsRate, err := x3ClosedLoop(4, func(t sim.Time) (sim.Time, error) {
		me := wz % 4
		wz++
		if zd.WP(zone[me]) >= zd.WritableCap(zone[me]) {
			z := (zone[me] + 4) % zd.NumZones()
			done, err := zd.Reset(t, z)
			if err != nil {
				return t, err
			}
			zone[me], t = z, done
		}
		_, done, err := zd.Append(t, zone[me], nil)
		return done, err
	}, dur)
	if err != nil {
		return nil, err
	}
	return []x3Row{{"sequential streams x4", convRate, znsRate, "parity: both flash-bound"}}, nil
}

// x3RandomOverwrite: random 4K overwrite through a block interface (steady
// state).
func x3RandomOverwrite(cfg Config, lat flash.Latencies, dur sim.Time) ([]x3Row, error) {
	convRes, err := E10Conv(cfg)
	if err != nil {
		return nil, err
	}
	hostRes, err := E10HostFTL(true, cfg)
	if err != nil {
		return nil, err
	}
	return []x3Row{{"random 4K overwrite (block API)", convRes.WritePagesPS,
		hostRes.WritePagesPS, "mild regression: host FTL pays zone-granular reclaim"}}, nil
}

// x3SharedLog: multi-writer shared log, 8 writers, one zone.
func x3SharedLog(cfg Config, lat flash.Latencies, dur sim.Time) ([]x3Row, error) {
	// Conventional: the host assigns log offsets in memory; the device
	// takes the writes in parallel. Uses the same 8-LUN geometry as the
	// E7 zone device so all three rows compare identical hardware.
	conv, err := ftl.NewDefault(e7Geometry(), lat, 0.07)
	if err != nil {
		return nil, err
	}
	var cursor int64
	convRate, err := x3ClosedLoop(8, func(t sim.Time) (sim.Time, error) {
		lpn := cursor % conv.CapacityPages()
		cursor++
		return conv.WritePage(t, lpn, nil)
	}, dur)
	if err != nil {
		return nil, err
	}
	wr, err := E7Throughput(8, false, dur)
	if err != nil {
		return nil, err
	}
	ap, err := E7Throughput(8, true, dur)
	if err != nil {
		return nil, err
	}
	return []x3Row{
		{"shared log x8 (zone writes)", convRate, wr, "REGRESSION: write-pointer serialization (§4.2)"},
		{"shared log x8 (zone append)", convRate, ap, "fixed by the append command"},
	}, nil
}

// x3RandomReads: random reads (no writes), the pure read path. One
// workload source runs through both stacks, so the block is one part.
func x3RandomReads(cfg Config, lat flash.Latencies, dur sim.Time) ([]x3Row, error) {
	conv, err := ftl.NewDefault(x3Geometry(), lat, 0.07)
	if err != nil {
		return nil, err
	}
	var at sim.Time
	for lpn := int64(0); lpn < conv.CapacityPages(); lpn++ {
		if at, err = conv.WritePage(at, lpn, nil); err != nil {
			return nil, err
		}
	}
	src := workload.NewSource(cfg.Seed)
	keys := workload.NewUniform(src, conv.CapacityPages())
	res := RunMixed(MixedCfg{Writers: 8, Write: func(t sim.Time) (sim.Time, error) {
		done, _, err := conv.ReadPage(sim.Max(t, at), keys.Next())
		return done, err
	}, Start: at, Duration: dur, Src: src})
	if res.Err != nil {
		return nil, res.Err
	}
	convRate := res.WriteScale

	zd, err := zns.New(zns.Config{Geom: x3Geometry(), Lat: lat, ZoneBlocks: 1})
	if err != nil {
		return nil, err
	}
	f, err := hostftl.New(zd, hostftl.Config{ZonesPerStream: 4})
	if err != nil {
		return nil, err
	}
	at = 0
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if at, err = f.Write(at, lpn, nil); err != nil {
			return nil, err
		}
	}
	zkeys := workload.NewUniform(src, f.CapacityPages())
	res = RunMixed(MixedCfg{Writers: 8, Write: func(t sim.Time) (sim.Time, error) {
		done, _, err := f.Read(sim.Max(t, at), zkeys.Next())
		return done, err
	}, Start: at, Duration: dur, Src: src})
	if res.Err != nil {
		return nil, res.Err
	}
	return []x3Row{{"random reads x8", convRate, res.WriteScale, "parity: reads bypass placement"}}, nil
}
