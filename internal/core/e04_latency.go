package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E4",
		Title:      "Read latency and write throughput: conventional GC vs ZNS (WD benchmark, §2.4)",
		PaperClaim: "ZNS: 60% lower average read latency, ~3x higher write throughput",
		Run:        runE4,
	})
}

func e4Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

// E4Result is one device's measurement, exposed for benches and tests.
type E4Result struct {
	Name         string
	WritePagesPS float64
	ReadMean     sim.Time
	ReadP50      sim.Time
	ReadP90      sim.Time
	ReadP99      sim.Time
	ReadP999     sim.Time
	WriteP99     sim.Time
	// Attr is the per-phase latency attribution accumulated over the
	// measured window of this configuration's drive.
	Attr telemetry.AttrSnapshot
	// Crit is the critical-path recording over the same window; CritOpts
	// selects the stack's replay model (zoned: erases are resets).
	Crit     critpath.Snapshot
	CritOpts critpath.PredictOpts
	// Exem is the drained exemplar reservoir over the same window (the
	// slowest IOs with full forensics); ExemNames are the tenant labels.
	Exem      exemplar.Snapshot
	ExemNames [telemetry.MaxTenants]string
	// Device is the end-of-run device snapshot (wear, zone census, audit).
	Device DeviceState
}

// rebaseSeqs shifts the result's exemplar sequence numbers past those of
// the parts that precede it (runParts).
func (e *E4Result) rebaseSeqs(delta uint64) { e.Exem.Rebase(delta) }

// E4Conventional drives a steady-state conventional SSD: the device is
// pre-filled and the writers sustain uniform random overwrites, so the FTL
// garbage-collects continuously while Poisson reads arrive.
func E4Conventional(cfg Config) (E4Result, error) {
	dev, err := ftl.NewDefault(e4Geometry(), scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), false), 0.07)
	if err != nil {
		return E4Result{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, "conventional (OP 7%)", critpath.PredictOpts{},
		convDevSnap(dev, e4Geometry()))
	var at sim.Time
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			return E4Result{}, err
		}
	}
	src := workload.NewSource(cfg.Seed)
	wKeys := workload.NewUniform(src, dev.CapacityPages())
	// Age the device to GC steady state: overwrite 1.5x the logical space
	// so the measurement sees the sustained-GC regime, not a fresh drive.
	for i := int64(0); i < dev.CapacityPages()*3/2; i++ {
		if at, err = dev.WritePage(at, wKeys.Next(), nil); err != nil {
			return E4Result{}, err
		}
	}
	rKeys := workload.NewUniform(src, dev.CapacityPages())
	dur, warm := e4Duration(cfg)
	before := probe.Attr.Snapshot()
	critDrain(probe)     // discard prefill/aging paths
	exemplarDrain(probe) // likewise for exemplars
	res := RunMixed(MixedCfg{
		Writers: 4,
		Write: func(t sim.Time) (sim.Time, error) {
			return dev.WritePage(sim.Max(t, at), wKeys.Next(), nil)
		},
		ReadRate: e4ReadRate,
		Read: func(t sim.Time) (sim.Time, error) {
			done, _, err := dev.ReadPage(sim.Max(t, at), rKeys.Next())
			return done, err
		},
		Start:    at,
		Duration: dur,
		Warmup:   warm,
		Src:      src,
		Probe:    probe,
	})
	if res.Err != nil {
		return E4Result{}, res.Err
	}
	return E4Result{
		Name:         "conventional (OP 7%)",
		WritePagesPS: res.WriteScale,
		ReadMean:     res.ReadLat.Mean,
		ReadP50:      res.ReadLat.P50,
		ReadP90:      res.ReadLat.P90,
		ReadP99:      res.ReadLat.P99,
		ReadP999:     res.ReadLat.P999,
		WriteP99:     res.WriteLat.P99,
		Attr:         probe.Attr.Snapshot().Delta(before),
		Crit:         critDrain(probe),
		CritOpts:     critpath.PredictOpts{},
		Exem:         exemplarDrain(probe),
		ExemNames:    exemplarNames(probe),
		Device:       DeviceState{Name: "conventional (OP 7%)", Wear: dev.Flash().Wear()},
	}, nil
}

// E4ZNS drives the zone-native equivalent: writers append through zones in
// a circular log, resetting each wholly-invalidated zone before reuse —
// the host schedules all reclamation, and no data is ever copied.
func E4ZNS(cfg Config) (E4Result, error) {
	scaleWP, wpScale := wpSerialScale(cfg)
	dev, err := zns.New(zns.Config{
		Geom: e4Geometry(), Lat: scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
		ZoneBlocks: 4, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return E4Result{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, "zns (host-scheduled resets)",
		critpath.PredictOpts{ErasesAreResets: true},
		znsDevSnap(dev, e4Geometry(), rawReclaim(dev)))
	aud := dev.AttachAuditor()
	nz := dev.NumZones()
	// Pre-fill every zone so reads have targets and reuse requires resets.
	var at sim.Time
	for z := 0; z < nz; z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, at, err = dev.Append(at, z, nil); err != nil {
				return E4Result{}, err
			}
		}
	}
	src := workload.NewSource(cfg.Seed)
	rSrc := workload.NewUniform(src, int64(nz)*dev.ZonePages())
	nextZone := 0
	var cur = -1
	writeOne := func(t sim.Time) (sim.Time, error) {
		if cur < 0 || dev.WP(cur) >= dev.WritableCap(cur) {
			// Recycle the next zone in FIFO order: reset (erasing its now
			// stale data) and continue appending. The reset is the only
			// "GC" and the host chose its moment.
			z := nextZone
			nextZone = (nextZone + 1) % nz
			done, err := dev.Reset(t, z)
			if err != nil {
				return t, err
			}
			cur = z
			t = done
		}
		_, done, err := dev.Append(t, cur, nil)
		return done, err
	}
	dur, warm := e4Duration(cfg)
	before := probe.Attr.Snapshot()
	critDrain(probe)     // discard prefill paths
	exemplarDrain(probe) // likewise for exemplars
	res := RunMixed(MixedCfg{
		Writers:  4,
		Write:    func(t sim.Time) (sim.Time, error) { return writeOne(sim.Max(t, at)) },
		ReadRate: e4ReadRate,
		Read: func(t sim.Time) (sim.Time, error) {
			// Read only below the target zone's write pointer.
			lba := rSrc.Next()
			z, off := dev.ZoneOf(lba)
			if wp := dev.WP(z); wp == 0 {
				z, off = 0, 0
				if dev.WP(0) == 0 {
					return t, nil
				}
			} else if off >= wp {
				off = off % wp
			}
			done, _, err := dev.Read(sim.Max(t, at), dev.LBA(z, off))
			return done, err
		},
		Start:    at,
		Duration: dur,
		Warmup:   warm,
		Src:      src,
		Probe:    probe,
	})
	if res.Err != nil {
		return E4Result{}, res.Err
	}
	if err := aud.Check(); err != nil {
		return E4Result{}, err
	}
	return E4Result{
		Name:         "zns (host-scheduled resets)",
		WritePagesPS: res.WriteScale,
		ReadMean:     res.ReadLat.Mean,
		ReadP50:      res.ReadLat.P50,
		ReadP90:      res.ReadLat.P90,
		ReadP99:      res.ReadLat.P99,
		ReadP999:     res.ReadLat.P999,
		WriteP99:     res.WriteLat.P99,
		Attr:         probe.Attr.Snapshot().Delta(before),
		Crit:         critDrain(probe),
		CritOpts:     critpath.PredictOpts{ErasesAreResets: true},
		Exem:         exemplarDrain(probe),
		ExemNames:    exemplarNames(probe),
		Device:       deviceState("zns (host-scheduled resets)", dev, aud),
	}, nil
}

const e4ReadRate = 3000 // reads per virtual second

func e4Duration(cfg Config) (dur, warm sim.Time) {
	if cfg.Quick {
		return 400 * sim.Millisecond, 100 * sim.Millisecond
	}
	return 2 * sim.Second, 500 * sim.Millisecond
}

func runE4(cfg Config) (Report, error) {
	r := Report{
		ID:         "E4",
		Title:      "Mixed read/write: conventional vs ZNS",
		PaperClaim: "60% lower average read latency, ~3x higher throughput on ZNS",
		Header: []string{"Device", "Write pages/s", "Read mean (us)", "Read p99 (us)",
			"Read p999 (us)", "Write p99 (us)"},
	}
	var conv, z E4Result
	if err := runParts(cfg, part(&conv, E4Conventional), part(&z, E4ZNS)); err != nil {
		return r, err
	}
	for _, e := range []E4Result{conv, z} {
		r.AddRow(e.Name, fmt.Sprintf("%.0f", e.WritePagesPS),
			fmt.Sprintf("%.0f", e.ReadMean.Micros()),
			fmt.Sprintf("%.0f", e.ReadP99.Micros()),
			fmt.Sprintf("%.0f", e.ReadP999.Micros()),
			fmt.Sprintf("%.0f", e.WriteP99.Micros()))
		r.AddBreakdown(e.Name, e.Attr)
		r.AddCrit(cfg, e.Name, e.Crit, e.CritOpts, e.Attr)
		r.AddExemplars(cfg, e.Name, e.Exem, e.CritOpts, e.ExemNames)
		r.AddDeviceState(e.Device)
		r.Bench = append(r.Bench, BenchEntry{
			Experiment: "E4", Name: e.Name,
			WritePPS:    e.WritePagesPS,
			ReadMeanUs:  e.ReadMean.Micros(),
			ReadP50Us:   e.ReadP50.Micros(),
			ReadP90Us:   e.ReadP90.Micros(),
			ReadP99Us:   e.ReadP99.Micros(),
			ReadP999Us:  e.ReadP999.Micros(),
			WriteP99Us:  e.WriteP99.Micros(),
			Attribution: e.Attr.Dump(),
			CritPath:    critBench(e.Crit, e.CritOpts),
			Exemplars:   e.Exem.Bench(),
		})
	}
	r.AddNote("throughput ratio (zns/conv): %.2fx; read-mean reduction: %.0f%%; read-p99 ratio: %.2fx",
		z.WritePagesPS/conv.WritePagesPS,
		(1-float64(z.ReadMean)/float64(conv.ReadMean))*100,
		float64(conv.ReadP99)/float64(z.ReadP99))
	if w, rd := conv.Attr.Ops[telemetry.OpWrite], conv.Attr.Ops[telemetry.OpRead]; w.Count > 0 && rd.Count > 0 {
		r.AddNote("conventional tails decomposed: write p99=%.0fus of which gc_stall p99=%.0fus; read p99=%.0fus of which lun_wait (GC traffic) p99=%.0fus",
			w.Total.Percentile(99).Micros(),
			w.Phase[telemetry.PhaseGCStall].Percentile(99).Micros(),
			rd.Total.Percentile(99).Micros(),
			rd.Phase[telemetry.PhaseLUNWait].Percentile(99).Micros())
	}
	return r, nil
}
