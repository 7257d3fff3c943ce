package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/workload"
	"blockhead/internal/zkv"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E5",
		Title:      "LSM key-value store on conventional vs ZNS (RocksDB/ZenFS, §2.4)",
		PaperClaim: "WA drops 5x -> 1.2x; 2-4x lower read tail latency; 2x write throughput",
		Run:        runE5,
	})
}

// E5Result is one backend's measurement.
type E5Result struct {
	Name         string
	DeviceWA     float64
	AppWA        float64
	WriteBytesPS float64
	ReadMean     sim.Time
	ReadP99      sim.Time
	ReadP999     sim.Time
}

func e5Geometry() flash.Geometry {
	return flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 112, PagesPerBlock: 64, PageSize: 1024}
}

func e5Opts(seed int64) zkv.Options {
	return zkv.Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10,
		TableTargetBytes: 32 << 10, Seed: seed}
}

// E5Run drives one backend: fill a working set that brings the device near
// full, then run an overwrite+read phase measuring read latency quantiles,
// write throughput, and end-to-end write amplification.
func E5Run(name string, backend zkv.Backend, cfg Config) (E5Result, error) {
	db := zkv.Open(backend, e5Opts(cfg.Seed))
	keys := make([][]byte, 12000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	churn := len(keys)
	if cfg.Quick {
		churn = len(keys) / 2
	}
	src := workload.NewSource(cfg.Seed)
	val := make([]byte, 580)

	var at sim.Time
	for _, key := range keys {
		var err error
		if at, err = db.Put(at, key, val); err != nil {
			return E5Result{}, fmt.Errorf("%s fill: %w", name, err)
		}
	}
	// Measured phase: a closed-loop overwrite writer with concurrent
	// open-loop point reads (RocksDB's readwhilewriting), so read tails
	// see compaction and device-GC interference as queueing.
	base := *backend.Counters()
	baseAt := at
	var userBytes uint64
	kg := workload.NewUniform(src, int64(len(keys)))
	rg := workload.NewUniform(src, int64(len(keys)))
	writesLeft := churn
	var lastWrite sim.Time
	res := RunMixed(MixedCfg{
		Writers: 1,
		Write: func(t sim.Time) (sim.Time, error) {
			if writesLeft == 0 {
				return t, ErrStopDrive // churn budget spent
			}
			writesLeft--
			userBytes += uint64(len(val) + 12)
			done, err := db.Put(t, keys[kg.Next()], val)
			lastWrite = done
			return done, err
		},
		Readers: 2,
		Read: func(t sim.Time) (sim.Time, error) {
			done, _, found, err := db.Get(t, keys[rg.Next()])
			if err != nil {
				return t, err
			}
			if !found {
				return t, fmt.Errorf("%s read: key missing", name)
			}
			return done, nil
		},
		Start:    at,
		Duration: sim.Hour, // the write budget, not the clock, ends the run
		Warmup:   50 * sim.Millisecond,
		Src:      src,
	})
	if res.Err != nil {
		return E5Result{}, fmt.Errorf("%s: %w", name, res.Err)
	}
	c := *backend.Counters()
	host := c.HostWritePages - base.HostWritePages
	programs := c.FlashProgramPages - base.FlashProgramPages
	wa := float64(programs) / float64(host)
	st := db.Stats()
	return E5Result{
		Name:         name,
		DeviceWA:     wa,
		AppWA:        st.AppWriteAmp(),
		WriteBytesPS: stats.Rate(userBytes, lastWrite-baseAt),
		ReadMean:     res.ReadLat.Mean,
		ReadP99:      res.ReadLat.P99,
		ReadP999:     res.ReadLat.P999,
	}, nil
}

// e5Built, when set, sees the device E5Conventional builds, so a test can
// hold it weakly and see the finished part's stack collected.
var e5Built func(dev *ftl.Device)

// E5Conventional runs E5 on a trim-less conventional device with
// filesystem-style scattered allocation: the deployment the paper's RocksDB
// numbers describe.
func E5Conventional(cfg Config) (E5Result, error) {
	dev, err := ftl.New(ftl.Config{Geom: e5Geometry(), Lat: flash.LatenciesFor(flash.TLC),
		OPFraction: 0.03, HotColdSeparation: true, TrimSupported: false, StoreData: true})
	if err != nil {
		return E5Result{}, err
	}
	if e5Built != nil {
		e5Built(dev)
	}
	b, err := zkv.NewConvBackend(dev, 64)
	if err != nil {
		return E5Result{}, err
	}
	b.SetAllocPolicy(zkv.ScatterFit)
	return E5Run("conventional (no trim, scattered alloc)", b, cfg)
}

// E5ZNS runs E5 on a ZNS device with per-level zone streams (ZenFS-style).
func E5ZNS(cfg Config) (E5Result, error) {
	dev, err := zns.New(zns.Config{Geom: e5Geometry(), Lat: flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 2, StoreData: true})
	if err != nil {
		return E5Result{}, err
	}
	b, err := zkv.NewZNSBackend(dev, 4)
	if err != nil {
		return E5Result{}, err
	}
	return E5Run("zns (zone per level)", b, cfg)
}

// e5Parts is E5's two parts. Each device stores its data, so each part
// declares the payload it can hold (its table segments, resident in slab
// chunks outside the Go heap), which runs them one at a time; and each part
// builds the stack it runs, so the conventional device is garbage, and its
// chunks are unmapped after the next collection, once the ZNS part builds
// its own. Running the two at once is ROADMAP 15(f).
func e5Parts(conv, z *E5Result) []partTask {
	parts := []partTask{part(conv, E5Conventional), part(z, E5ZNS)}
	for i := range parts {
		parts[i].bytes = e5Geometry().CapacityBytes()
	}
	return parts
}

func runE5(cfg Config) (Report, error) {
	r := Report{
		ID:         "E5",
		Title:      "LSM KV store: conventional vs ZNS backend",
		PaperClaim: "device WA 5x -> 1.2x; read tail 2-4x lower; write throughput 2x higher",
		Header: []string{"Backend", "Device WA", "App WA", "User MB/s",
			"Read mean (us)", "Read p99 (us)", "Read p999 (us)"},
	}
	var conv, z E5Result
	if err := runParts(cfg, e5Parts(&conv, &z)...); err != nil {
		return r, err
	}
	for _, e := range []E5Result{conv, z} {
		r.AddRow(e.Name, fmt.Sprintf("%.2f", e.DeviceWA), fmt.Sprintf("%.2f", e.AppWA),
			fmt.Sprintf("%.2f", e.WriteBytesPS/1e6),
			fmt.Sprintf("%.0f", e.ReadMean.Micros()),
			fmt.Sprintf("%.0f", e.ReadP99.Micros()),
			fmt.Sprintf("%.0f", e.ReadP999.Micros()))
	}
	r.AddNote("WA ratio %.1fx -> %.1fx; p99 ratio %.2fx; throughput ratio %.2fx",
		conv.DeviceWA, z.DeviceWA,
		float64(conv.ReadP99)/float64(z.ReadP99),
		z.WriteBytesPS/conv.WriteBytesPS)
	return r, nil
}
