package main

import (
	"blockhead/internal/core"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

const (
	mixedWriters   = 32 // closed-loop writers
	mixedOpenZones = 8  // zones the writers round-robin over
)

// arm selects the instruments hung on the drive. armFull is exactly what
// core's attrProbe builds; the single-instrument settings exist for the
// ladder, which arms one at a time to price each.
type arm int

const (
	armNil arm = iota
	armAttr
	armAttrCrit
	armAttrExem
	armFull
)

// mixedInst is E4's ZNS circular log (append, FIFO reset on wrap) driven
// through core.RunMixed: closed-loop writers round-robin over a few open
// zones beside open-loop Poisson reads. Device work per op is minimal, so
// the event loop, the driver, the arrival process and the latency
// distributions are most of the host time, and no GC runs at all.
type mixedInst struct {
	arm   arm
	dev   *zns.Device
	aud   *zns.Auditor
	probe *telemetry.Probe
	src   *workload.Source
	rKeys *workload.Uniform

	sliceLen sim.Time
	readRate float64
	at       sim.Time // where the next drive starts
	open     [mixedOpenZones]int
	rr       int
	nextZone int

	tr    *tracer
	drive int32 // the running drive's span, parent of the op spans

	writes, reads uint64
	violations    uint64
	last          core.MixedResult
}

func newMixedNil(sc scale, seed int64) (instance, error)   { return newMixed(sc, seed, armNil) }
func newMixedArmed(sc scale, seed int64) (instance, error) { return newMixed(sc, seed, armFull) }

func newMixed(sc scale, seed int64, a arm) (*mixedInst, error) {
	dev, err := zns.New(zns.Config{Geom: sc.geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, MaxActive: 14})
	if err != nil {
		return nil, err
	}
	m := &mixedInst{arm: a, dev: dev, sliceLen: sc.mixedSlice, readRate: sc.mixedReads}
	if a != armNil {
		m.probe = armProbe(dev, sc.geom, a)
		dev.SetProbe(m.probe)
	}
	m.aud = dev.AttachAuditor()
	for i := range m.open {
		m.open[i] = -1
	}
	// Prefill every zone so reads have targets and reuse requires resets.
	for z := 0; z < dev.NumZones(); z++ {
		for o := int64(0); o < dev.ZonePages(); o++ {
			if _, m.at, err = dev.Append(m.at, z, nil); err != nil {
				return nil, err
			}
		}
	}
	m.src = workload.NewSource(seed)
	m.rKeys = workload.NewUniform(m.src, int64(dev.NumZones())*dev.ZonePages())
	if res := m.run(sc.mixedWarm); res.Err != nil {
		return nil, res.Err
	}
	m.writes, m.reads = 0, 0
	return m, nil
}

// armProbe builds the probe core's attrProbe hands an experiment's stack: a
// private attribution sink wired to a flight recorder, with the critical
// path recorder and the exemplar reservoir attached to it.
func armProbe(dev *zns.Device, geom flash.Geometry, a arm) *telemetry.Probe {
	sink := telemetry.NewAttrSink()
	p := &telemetry.Probe{Attr: sink, FlightRec: telemetry.NewFlight(0)}
	fl := p.FlightRec
	sink.OnViolation = func(at sim.Time) {
		fl.Violation(at, telemetry.FlightAttrViolation, -1, "attribution_invariant", 0)
	}
	if a == armAttrCrit || a == armFull {
		critpath.Attach(sink, critpath.Options{})
	}
	if a == armAttrExem || a == armFull {
		chip := dev.Flash()
		exemplar.Attach(sink, exemplar.Options{}).SetSnap(func(done sim.Time, s *exemplar.DevSnap) {
			s.Zoned = true
			c := dev.StateCensus()
			for i := 0; i < exemplar.NumZoneStates && i < len(c); i++ {
				s.ZoneCount[i] = int32(c[i])
			}
			s.HotZone = -1
			for z := 0; z < dev.NumZones(); z++ {
				if dev.State(z) == zns.Open && (s.HotZone < 0 || dev.WP(z) > s.HotWP) {
					s.HotZone, s.HotWP = int32(z), dev.WP(z)
				}
			}
			s.BusyLUNs, s.TotalLUNs = int32(chip.BusyLUNs(done)), int32(geom.LUNs())
			s.BusyChans, s.TotalChans = int32(chip.BusyChans(done)), int32(geom.Channels)
			s.GCRuns = dev.Resets()
			s.Free = int64(s.ZoneCount[int(zns.Empty)])
		})
	}
	return p
}

// writeOne appends to the next open zone in round-robin order; a full slot
// recycles the next zone in FIFO order first. The reset is the only
// reclamation, and no data is ever copied.
func (m *mixedInst) writeOne(t sim.Time) (sim.Time, error) {
	slot := m.rr % mixedOpenZones
	m.rr++
	z := m.open[slot]
	if z < 0 || m.dev.WP(z) >= m.dev.WritableCap(z) {
		z = m.nextZone
		m.nextZone = (m.nextZone + 1) % m.dev.NumZones()
		done, err := m.dev.Reset(t, z)
		if err != nil {
			return t, err
		}
		m.open[slot] = z
		t = done
	}
	_, done, err := m.dev.Append(t, z, nil)
	return done, err
}

// readOne reads a uniform LBA, folded below its zone's write pointer.
func (m *mixedInst) readOne(t sim.Time) (sim.Time, error) {
	z, off := m.dev.ZoneOf(m.rKeys.Next())
	wp := m.dev.WP(z)
	if wp == 0 {
		return t, nil // zone just reset: nothing to read yet
	}
	if off >= wp {
		off %= wp
	}
	done, _, err := m.dev.Read(t, m.dev.LBA(z, off))
	return done, err
}

// run drives the device for dur of virtual time from where the last drive
// ended. One op in sampleEvery is timed when tracing is on.
func (m *mixedInst) run(dur sim.Time) core.MixedResult {
	timed := func(k kind, op func(sim.Time) (sim.Time, error)) core.OpFunc {
		return func(t sim.Time) (sim.Time, error) {
			if !m.tr.sample() {
				return op(t)
			}
			id, t0 := m.tr.begin(k, m.drive)
			done, err := op(t)
			m.tr.end(k, id, t0)
			return done, err
		}
	}
	res := core.RunMixed(core.MixedCfg{
		Writers:  mixedWriters,
		Write:    timed(kWriteOp, m.writeOne),
		ReadRate: m.readRate,
		Read:     timed(kReadOp, m.readOne),
		Start:    m.at,
		Duration: dur,
		Src:      m.src,
		Probe:    m.probe,
	})
	m.at += dur
	m.writes += res.WriteOps
	m.reads += res.ReadOps
	m.last = res
	return res
}

func (m *mixedInst) slice(tr *tracer) sliceOut {
	m.tr = tr
	sid, t0 := tr.begin(kSlice, -1)
	did, dt := tr.begin(kDrive, sid)
	m.drive = did
	res := m.run(m.sliceLen)
	tr.end(kDrive, did, dt)
	// Experiments drain the per-IO layers around each measured window;
	// that is part of what arming them costs. Nil-safe when unarmed.
	sink := m.probe.Attribution()
	critpath.DrainFromSink(sink)
	exemplar.FromSink(sink).Drain()
	out := sliceOut{ops: res.WriteOps + res.ReadOps}
	out.ns = tr.end(kSlice, sid, t0)
	m.tr = nil
	if res.Err != nil {
		out.failed++
	}
	// Audit, attribution and flight-recorder violations count as failures.
	v := m.aud.Violations() + sink.Violations() + m.probe.Flight().Violations()
	out.failed += v - m.violations
	m.violations = v
	return out
}

func summaryStats(s *modelStats, prefix string, l stats.Summary) {
	s.i(prefix+".Count", int64(l.Count))
	s.i(prefix+".MeanNs", int64(l.Mean))
	s.i(prefix+".P50Ns", int64(l.P50))
	s.i(prefix+".P90Ns", int64(l.P90))
	s.i(prefix+".P99Ns", int64(l.P99))
	s.i(prefix+".P999Ns", int64(l.P999))
	s.i(prefix+".MaxNs", int64(l.Max))
}

func (m *mixedInst) model() modelStats {
	var s modelStats
	s.u("Writes", m.writes)
	s.u("Reads", m.reads)
	s.i("VirtualTimeNs", int64(m.at))
	s.u("Slice.WriteOps", m.last.WriteOps)
	s.u("Slice.ReadOps", m.last.ReadOps)
	summaryStats(&s, "Slice.WriteLat", m.last.WriteLat)
	summaryStats(&s, "Slice.ReadLat", m.last.ReadLat)
	c := m.dev.Counters()
	s.u("HostWritePages", c.HostWritePages)
	s.u("HostReadPages", c.HostReadPages)
	s.u("FlashProgramPages", c.FlashProgramPages)
	s.u("FlashReadPages", c.FlashReadPages)
	s.u("BlockErases", c.BlockErases)
	s.f("WriteAmp", c.WriteAmp())
	s.u("ZoneResets", m.dev.Resets())
	s.u("ZoneAppends", m.dev.Appends())
	if sink := m.probe.Attribution(); sink != nil {
		s.u("AttrSeq", sink.Seq())
		s.u("AttrViolations", sink.Violations())
	}
	return s
}

func (m *mixedInst) counts() layerCounts {
	var c layerCounts
	c[cWrites], c[cReads] = m.writes, m.reads
	c[cEvents] = m.writes + m.reads
	c.addFlash(m.dev.Flash().Counts())
	c[cZNSAppends], c[cZNSResets] = m.dev.Appends(), m.dev.Resets()
	return c
}

// layers: RunMixed is a span and so is every sampled OpFunc closure under
// it, so the driver's self time is measured: the drive minus its closures.
// Inside the driver, sim and the Poisson arrivals are count x rung and core
// keeps the rest; inside the closures, flash and the key generator are
// count x rung and zns keeps the rest. Armed, the ladder's paired nil and
// armed drives say how much of each side is telemetry.
func (m *mixedInst) layers(ld ladder, t traced, mt metricSet) {
	c := t.counts
	writes, reads := float64(c[cWrites]), float64(c[cReads])
	ops := writes + reads
	drive := float64(t.acc[kDrive].ns)
	closures := min(writes*ld.sampledMean(t.acc[kWriteOp])+reads*ld.sampledMean(t.acc[kReadOp]), drive)
	driver := drive - closures
	var telDriver, telClosure float64
	if m.arm != armNil {
		telDriver, telClosure = ops*ld.telDriverNs, ops*ld.telClosureNs
	}
	simNs, poissonNs := float64(c[cEvents])*ld.simLoopNs, reads*ld.poissonNs
	flashNs, uniformNs := ld.flashNs(c), reads*ld.uniformNs
	coreSelf := fit(driver, &simNs, &poissonNs, &telDriver)
	znsSelf := fit(closures, &flashNs, &uniformNs, &telClosure)
	total := float64(t.ns)
	mt["sim.share"] = simNs / total
	mt["core.share"] = coreSelf / total
	mt["core.driver_self_ns_per_op"] = driver / ops
	mt["zns.share"] = znsSelf / total
	mt["flash.share"] = flashNs / total
	mt["telemetry.share"] = (telDriver + telClosure) / total
}
