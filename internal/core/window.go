package core

import (
	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/zns"
)

// This file holds the measured window the latency experiments (E4, E6, A5,
// E14) share, and the device stacks they measure through it.

// window is one stack's measured window: what the measured drive leaves in
// the stack's telemetry, plus the device's end-of-run state. The stack
// builders set Name and CritOpts, measure fills the recordings, and the
// experiment sets Device.
type window struct {
	Name string
	// Attr is the per-phase latency attribution over the window.
	Attr telemetry.AttrSnapshot
	// Crit is the critical-path recording over the window; CritOpts selects
	// the stack's replay model (zoned: erases are resets) and whether it
	// predicts per tenant.
	Crit     critpath.Snapshot
	CritOpts critpath.PredictOpts
	// Exem is the drained exemplar reservoir over the window (the slowest
	// IOs with full forensics); ExemNames are the tenant labels at drain
	// time.
	Exem      exemplar.Snapshot
	ExemNames [telemetry.MaxTenants]string
	// Device is the end-of-run device snapshot (wear, zone census, audit).
	Device DeviceState
}

// rebaseSeqs shifts the window's exemplar sequence numbers past those of
// the parts that precede it (runParts).
func (w *window) rebaseSeqs(delta uint64) { w.Exem.Rebase(delta) }

// measure runs one measured window on probe's sink. Before run it resets
// the critical-path recorder and the exemplar reservoir, discarding what
// ran before (prefill, aging, E6's throughput phase) without building a
// snapshot of it; after run it captures the attribution delta over run,
// both drained recordings and the tenant labels. In explain mode the
// narrator replaces the reservoir, so Exem stays empty. A nil probe
// records nothing.
func (w *window) measure(probe *telemetry.Probe, run func() error) error {
	sink := probe.Attribution()
	before := sink.Snapshot()
	critpath.FromSink(sink).Reset()
	exemplar.FromSink(sink).Reset()
	if err := run(); err != nil {
		return err
	}
	w.Attr = sink.Snapshot().Delta(before)
	w.Crit = critpath.DrainFromSink(sink)
	w.Exem = exemplar.FromSink(sink).Drain()
	for t := range w.ExemNames {
		w.ExemNames[t] = sink.TenantName(telemetry.TenantID(t))
	}
	return nil
}

// addWindow appends a window's report sections: its latency attribution,
// critical path and what-if, slowest IOs, and device state. A recording
// with no IOs (no capture; every explain-mode exemplar drain) adds no
// section.
func (r *Report) addWindow(cfg Config, w window) {
	if d := w.Attr.Dump(); len(d.Ops) > 0 {
		r.Breakdowns = append(r.Breakdowns, Breakdown{Name: w.Name, Attr: d})
	}
	if w.Crit.IOs > 0 {
		r.Crit = append(r.Crit, CritSection{Name: w.Name, Snap: w.Crit, Opts: w.CritOpts,
			Attr: w.Attr, Scenarios: critScenarios(cfg)})
	}
	if w.Exem.Captured() > 0 || len(w.Exem.Flagged) > 0 {
		r.Exemplars = append(r.Exemplars, ExemplarSection{Name: w.Name, ID: r.ID,
			Seed: cfg.Seed, Quick: cfg.Quick, Snap: w.Exem, Opts: w.CritOpts, Names: w.ExemNames})
	}
	r.AddDeviceState(w.Device)
}

// LatResult is one stack's measurement in the read-latency experiments
// (E4, E6, A5), exposed for benches and tests.
type LatResult struct {
	window
	WritePagesPS float64
	WA           float64 // write amplification over the drive; 0 in E4
	ReadMean     sim.Time
	ReadP50      sim.Time
	ReadP90      sim.Time
	ReadP99      sim.Time
	ReadP999     sim.Time
	WriteP99     sim.Time
}

// setLat copies a drive's read latencies and write p99 into e.
func (e *LatResult) setLat(res MixedResult) {
	e.ReadMean, e.ReadP50, e.ReadP90 = res.ReadLat.Mean, res.ReadLat.P50, res.ReadLat.P90
	e.ReadP99, e.ReadP999, e.WriteP99 = res.ReadLat.P99, res.ReadLat.P999, res.WriteLat.P99
}

// bench packs e as experiment exp's bench entry. BenchEntry omits a zero
// WriteAmp, so E4's entries carry none.
func (e LatResult) bench(exp string) BenchEntry {
	return BenchEntry{
		Experiment: exp, Name: e.Name,
		WritePPS:    e.WritePagesPS,
		WriteAmp:    e.WA,
		ReadMeanUs:  e.ReadMean.Micros(),
		ReadP50Us:   e.ReadP50.Micros(),
		ReadP90Us:   e.ReadP90.Micros(),
		ReadP99Us:   e.ReadP99.Micros(),
		ReadP999Us:  e.ReadP999.Micros(),
		WriteP99Us:  e.WriteP99.Micros(),
		Attribution: e.Attr.Dump(),
		CritPath:    critBench(e.Crit, e.CritOpts),
		Exemplars:   e.Exem.Bench(),
	}
}

// stack is one built device stack as the measured drives see it, by
// logical page. The builders set the window's Name and CritOpts.
type stack struct {
	window
	probe    *telemetry.Probe // nil: no telemetry (A5's device-incremental GC)
	capacity int64            // logical pages
	// write writes one page; hot is the application's hotness hint, which
	// only the host stack can use (it picks the stream).
	write    func(at sim.Time, lpn int64, hot bool) (sim.Time, error)
	read     func(at sim.Time, lpn int64) (sim.Time, error)
	maintain OpFunc // paced host reclamation; nil when the device reclaims
	counters func() (hostWrites, flashPrograms uint64)
	device   func() (DeviceState, error) // end-of-run device state
}

// convStack builds a conventional SSD with the default FTL policy at
// overprovisioning op, armed with its own attribution probe and the per-IO
// forensics.
func convStack(cfg Config, name string, geom flash.Geometry, op float64, opts critpath.PredictOpts) (stack, error) {
	dev, err := ftl.NewDefault(geom, scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), false), op)
	if err != nil {
		return stack{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, name, opts, convDevSnap(dev, geom))
	s := convOn(dev, name)
	s.probe, s.CritOpts = probe, opts
	return s, nil
}

// convOn wraps a conventional device as a stack without telemetry.
func convOn(dev *ftl.Device, name string) stack {
	return stack{
		window:   window{Name: name},
		capacity: dev.CapacityPages(),
		write: func(t sim.Time, lpn int64, _ bool) (sim.Time, error) {
			return dev.WritePage(t, lpn, nil)
		},
		read: func(t sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := dev.ReadPage(t, lpn)
			return done, err
		},
		counters: func() (uint64, uint64) {
			c := dev.Counters()
			return c.HostWritePages, c.FlashProgramPages
		},
		device: func() (DeviceState, error) {
			return DeviceState{Name: name, Wear: dev.Flash().Wear()}, nil
		},
	}
}

// hostStack builds the host FTL on ZNS that E6 and E14 measure: incremental
// reclamation paced on the host's own clock, simple-copy relocation, and
// hot and cold writes on separate streams. Narrow zones (one erasure block
// each) give the host the same reclamation granularity the conventional
// FTL enjoys; four open zones per stream restore write parallelism across
// LUNs. OPFraction 0.20 matches the conventional baseline's *effective*
// spare (its 11% OP plus its fixed reserve floor and frontier headroom).
func hostStack(cfg Config, opts critpath.PredictOpts) (stack, error) {
	const name = "host FTL on ZNS (paced GC + streams)"
	scaleWP, wpScale := wpSerialScale(cfg)
	dev, err := zns.New(zns.Config{Geom: e6Geometry(),
		Lat:        scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
		ZoneBlocks: 1, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return stack{}, err
	}
	f, err := hostftl.New(dev, hostftl.Config{
		OPFraction:     0.20,
		Streams:        2,
		ZonesPerStream: 4,
		UseSimpleCopy:  true,
		GCMode:         hostftl.GCIncremental,
		GCChunkPages:   8,
	})
	if err != nil {
		return stack{}, err
	}
	probe := attrProbe(cfg)
	f.SetProbe(probe)
	exemplarArm(cfg, probe, name, opts, znsDevSnap(dev, e6Geometry(), hostReclaim(f)))
	aud := dev.AttachAuditor()
	return stack{
		window:   window{Name: name, CritOpts: opts},
		probe:    probe,
		capacity: f.CapacityPages(),
		write: func(t sim.Time, lpn int64, hot bool) (sim.Time, error) {
			stream := 1
			if hot {
				stream = 0
			}
			return f.WriteStream(t, lpn, stream, nil)
		},
		read: func(t sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := f.Read(t, lpn)
			return done, err
		},
		maintain: func(t sim.Time) (sim.Time, error) {
			// A few pages of relocation per tick, keeping the pool
			// comfortably above the inline thresholds.
			f.MaintenanceStep(t, 2, 12)
			return t, nil
		},
		counters: func() (uint64, uint64) {
			return f.HostWrites(), f.Counters().FlashProgramPages
		},
		device: func() (DeviceState, error) {
			if err := aud.Check(); err != nil {
				return DeviceState{}, err
			}
			return deviceState(name, dev, aud), nil
		},
	}, nil
}

// age prefills every logical page of a capacity-page device in order and
// then ages it with n writes at the keys next draws.
func age(capacity, n int64, next func() int64, write func(lpn int64) error) error {
	for lpn := int64(0); lpn < capacity; lpn++ {
		if err := write(lpn); err != nil {
			return err
		}
	}
	for i := int64(0); i < n; i++ {
		if err := write(next()); err != nil {
			return err
		}
	}
	return nil
}
