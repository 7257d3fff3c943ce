package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
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

// E4Conventional drives a steady-state conventional SSD: the device is
// pre-filled and the writers sustain uniform random overwrites, so the FTL
// garbage-collects continuously while Poisson reads arrive.
func E4Conventional(cfg Config) (LatResult, error) {
	s, err := convStack(cfg, "conventional (OP 7%)", e4Geometry(), 0.07, critpath.PredictOpts{})
	if err != nil {
		return LatResult{}, err
	}
	src := workload.NewSource(cfg.Seed)
	wKeys := workload.NewUniform(src, s.capacity)
	rKeys := workload.NewUniform(src, s.capacity)
	var at sim.Time
	// Age the device to GC steady state: overwrite 1.5x the logical space
	// so the measurement sees the sustained-GC regime, not a fresh drive.
	err = age(s.capacity, s.capacity*3/2, wKeys.Next, func(lpn int64) (err error) {
		at, err = s.write(at, lpn, false)
		return err
	})
	if err != nil {
		return LatResult{}, err
	}
	dur, warm := e4Duration(cfg)
	out := LatResult{window: s.window}
	err = out.measure(s.probe, func() error {
		res := RunMixed(MixedCfg{
			Writers: 4,
			Write: func(t sim.Time) (sim.Time, error) {
				return s.write(sim.Max(t, at), wKeys.Next(), false)
			},
			ReadRate: e4ReadRate,
			Read: func(t sim.Time) (sim.Time, error) {
				return s.read(sim.Max(t, at), rKeys.Next())
			},
			Start:    at,
			Duration: dur,
			Warmup:   warm,
			Src:      src,
			Probe:    s.probe,
		})
		out.WritePagesPS = res.WriteScale
		out.setLat(res)
		return res.Err
	})
	if err != nil {
		return LatResult{}, err
	}
	out.Device, err = s.device()
	return out, err
}

// E4ZNS drives the zone-native equivalent: writers append through zones in
// a circular log, resetting each wholly-invalidated zone before reuse —
// the host schedules all reclamation, and no data is ever copied.
func E4ZNS(cfg Config) (LatResult, error) {
	scaleWP, wpScale := wpSerialScale(cfg)
	dev, err := zns.New(zns.Config{
		Geom: e4Geometry(), Lat: scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
		ZoneBlocks: 4, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return LatResult{}, err
	}
	const name = "zns (host-scheduled resets)"
	opts := critpath.PredictOpts{ErasesAreResets: true}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, name, opts, znsDevSnap(dev, e4Geometry(), rawReclaim(dev)))
	aud := dev.AttachAuditor()
	nz := dev.NumZones()
	// Pre-fill every zone so reads have targets and reuse requires resets.
	var at sim.Time
	for z := 0; z < nz; z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, at, err = dev.Append(at, z, nil); err != nil {
				return LatResult{}, err
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
	out := LatResult{window: window{Name: name, CritOpts: opts}}
	err = out.measure(probe, func() error {
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
		out.WritePagesPS = res.WriteScale
		out.setLat(res)
		if res.Err != nil {
			return res.Err
		}
		return aud.Check()
	})
	if err != nil {
		return LatResult{}, err
	}
	out.Device = deviceState(name, dev, aud)
	return out, nil
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
	var conv, z LatResult
	if err := runParts(cfg, part(&conv, E4Conventional), part(&z, E4ZNS)); err != nil {
		return r, err
	}
	for _, e := range []LatResult{conv, z} {
		r.AddRow(e.Name, fmt.Sprintf("%.0f", e.WritePagesPS),
			fmt.Sprintf("%.0f", e.ReadMean.Micros()),
			fmt.Sprintf("%.0f", e.ReadP99.Micros()),
			fmt.Sprintf("%.0f", e.ReadP999.Micros()),
			fmt.Sprintf("%.0f", e.WriteP99.Micros()))
		r.addWindow(cfg, e.window)
		r.Bench = append(r.Bench, e.bench("E4"))
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
