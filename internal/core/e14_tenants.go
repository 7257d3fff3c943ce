package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E14",
		Title:      "Noisy neighbor: per-tenant SLOs and blame attribution (§2.4, §4.1)",
		PaperClaim: "on a conventional SSD the churny tenant's GC is charged to its victims; host-scheduled ZNS reclamation keeps every tenant inside its SLO",
		Run:        runE14,
	})
}

// E14's cast, sharing one device. Tenant 0 stays the implicit "sys"
// tenant (prefill/aging); the measured tenants each own one third of the
// logical space.
const (
	e14Web       = telemetry.TenantID(1) // latency-sensitive point reads
	e14Analytics = telemetry.TenantID(2) // throughput reads
	e14Churn     = telemetry.TenantID(3) // skewed overwrite stream (the noisy neighbor)
)

// Offered loads (per virtual second). The churn writer is sized to force
// steady reclamation; the readers stay well under device capacity so their
// tails reflect interference, not saturation.
const (
	e14WebRate       = 1200.0
	e14AnalyticsRate = 800.0
	e14ChurnRate     = 700.0
)

// e14SLOs registers the per-tenant objectives. The thresholds are the
// experiment's point: the ZNS/host stack meets them at the same offered
// load where the conventional stack's GC blows the web tenant's tail
// budget.
func e14SLOs(eng *telemetry.SLOEngine) {
	eng.Add(telemetry.SLO{Tenant: e14Web, Op: telemetry.OpRead,
		Pct: 90, LatencyMax: 4500 * sim.Microsecond, Budget: 0.25})
	eng.Add(telemetry.SLO{Tenant: e14Analytics, Op: telemetry.OpRead,
		Pct: 90, LatencyMax: 4500 * sim.Microsecond, Budget: 0.25})
	eng.Add(telemetry.SLO{Tenant: e14Churn, Op: telemetry.OpWrite,
		Pct: 90, LatencyMax: 10 * sim.Millisecond, Budget: 0.25})
}

// E14Result is one stack's measurement.
type E14Result struct {
	Name    string
	Streams []StreamResult
	Attr    telemetry.AttrSnapshot
	Tenants telemetry.TenantSnapshot
	SLO     []telemetry.SLOResult
	// Crit is the critical-path recording over the measured window;
	// CritOpts selects the stack's replay model and enables per-tenant
	// what-if predictions (who gains if zone resets were free?).
	Crit     critpath.Snapshot
	CritOpts critpath.PredictOpts
	// Exem is the drained exemplar reservoir over the measured window (the
	// slowest IOs per tenant with full forensics); ExemNames are the tenant
	// labels at drain time.
	Exem      exemplar.Snapshot
	ExemNames [telemetry.MaxTenants]string
	Device    DeviceState
}

// rebaseSeqs shifts the result's exemplar sequence numbers past those of
// the parts that precede it (runParts).
func (e *E14Result) rebaseSeqs(delta uint64) { e.Exem.Rebase(delta) }

// e14Stack abstracts the two configurations for the shared drive.
type e14Stack struct {
	name     string
	write    func(at sim.Time, lpn int64) (sim.Time, error)
	read     func(at sim.Time, lpn int64) (sim.Time, error)
	maintain OpFunc
	capacity int64
	at       sim.Time
	src      *workload.Source
	probe    *telemetry.Probe
	critOpts critpath.PredictOpts
	device   func() (DeviceState, error)
}

// e14TenantOf maps an LBA to its owning tenant: thirds in tenant order,
// with the division remainder belonging to the last tenant.
func e14TenantOf(lpn, third int64) telemetry.TenantID {
	t := lpn/third + 1
	if t > 3 {
		t = 3
	}
	return telemetry.TenantID(t)
}

// e14Names labels the tenants on the sink (shared across stacks; idempotent).
func e14Names(sink *telemetry.AttrSink) {
	sink.SetTenantName(e14Web, "web")
	sink.SetTenantName(e14Analytics, "analytics")
	sink.SetTenantName(e14Churn, "churn")
}

// e14Measure drives the three tenant streams against one prepared stack and
// evaluates the SLOs over the run's windows.
func e14Measure(s e14Stack, cfg Config) (E14Result, error) {
	dur, warm := 2*sim.Second, 250*sim.Millisecond
	if cfg.Quick {
		dur, warm = 500*sim.Millisecond, 100*sim.Millisecond
	}
	sink := s.probe.Attribution()
	e14Names(sink)
	// Fresh window ring + SLO engine per stack: each stack restarts virtual
	// time, and windows must not leak across devices.
	ws := telemetry.NewWindowSet(telemetry.WindowCfg{})
	eng := telemetry.NewSLOEngine(ws)
	e14SLOs(eng)
	sink.Windows, sink.SLO = ws, eng

	third := s.capacity / 3
	base := func(t telemetry.TenantID) int64 { return int64(t-1) * third }
	webKeys := workload.NewUniform(s.src, third)
	anaKeys := workload.NewUniform(s.src, third)
	churnKeys := workload.NewHotCold(s.src, third, 0.1, 0.9)

	beforeAttr := sink.Snapshot()
	beforeTen := sink.TenantSnapshot()
	critDrain(s.probe)     // discard prefill/aging paths
	exemplarDrain(s.probe) // likewise for exemplars
	res := RunMixed(MixedCfg{
		Streams: []StreamCfg{
			{Name: "web", Tenant: e14Web, Kind: telemetry.OpRead, Rate: e14WebRate,
				Op: func(at sim.Time) (sim.Time, error) {
					return s.read(at, base(e14Web)+webKeys.Next())
				}},
			{Name: "analytics", Tenant: e14Analytics, Kind: telemetry.OpRead, Rate: e14AnalyticsRate,
				Op: func(at sim.Time) (sim.Time, error) {
					return s.read(at, base(e14Analytics)+anaKeys.Next())
				}},
			{Name: "churn", Tenant: e14Churn, Kind: telemetry.OpWrite, Rate: e14ChurnRate,
				Op: func(at sim.Time) (sim.Time, error) {
					return s.write(at, base(e14Churn)+churnKeys.Next())
				}},
		},
		AuxRate: e6MaintRate(s.maintain), Aux: s.maintain,
		Start: s.at, Duration: dur, Warmup: warm, Src: s.src,
		Probe: s.probe,
	})
	if res.Err != nil {
		return E14Result{}, res.Err
	}
	out := E14Result{
		Name:      s.name,
		Streams:   res.Streams,
		Attr:      sink.Snapshot().Delta(beforeAttr),
		Tenants:   sink.TenantSnapshot().Delta(beforeTen),
		SLO:       eng.Evaluate(),
		Crit:      critDrain(s.probe),
		CritOpts:  s.critOpts,
		Exem:      exemplarDrain(s.probe),
		ExemNames: exemplarNames(s.probe),
	}
	if s.device != nil {
		var err error
		if out.Device, err = s.device(); err != nil {
			return E14Result{}, err
		}
	}
	return out, nil
}

// E14Conventional shares a conventional SSD between the tenants: the
// device's opaque GC mixes everyone's pages and its stalls land on whoever
// is unlucky enough to be running — the blame matrix charges every stalled
// tick to a culprit tenant, exactly.
func E14Conventional(cfg Config) (E14Result, error) {
	dev, err := ftl.NewDefault(e6Geometry(), scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), false), 0.11)
	if err != nil {
		return E14Result{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	exemplarArm(cfg, probe, "conventional (opaque device GC)",
		critpath.PredictOpts{PerTenant: true}, convDevSnap(dev, e6Geometry()))
	sink := probe.Attribution()
	src := workload.NewSource(cfg.Seed)
	var at sim.Time
	third := dev.CapacityPages() / 3
	// Prefill and age the whole device under each page's owning tenant: the
	// conventional FTL cannot tell tenants apart, so the aged flash blocks
	// interleave everyone's pages — exactly the state that makes one
	// tenant's churn everyone's GC problem. Ownership flows through the
	// worker stack so the polluter bookkeeping is right from block 0.
	write := func(lpn int64) error {
		sink.PushWorker(e14TenantOf(lpn, third))
		var werr error
		at, werr = dev.WritePage(at, lpn, nil)
		sink.PopWorker()
		return werr
	}
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if err := write(lpn); err != nil {
			return E14Result{}, err
		}
	}
	hcAll := workload.NewHotCold(src, dev.CapacityPages(), 0.1, 0.9)
	for i := int64(0); i < dev.CapacityPages(); i++ { // age to steady state
		if err := write(hcAll.Next()); err != nil {
			return E14Result{}, err
		}
	}
	return e14Measure(e14Stack{
		name: "conventional (opaque device GC)",
		write: func(t sim.Time, lpn int64) (sim.Time, error) {
			return dev.WritePage(t, lpn, nil)
		},
		read: func(t sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := dev.ReadPage(t, lpn)
			return done, err
		},
		capacity: dev.CapacityPages(),
		at:       at,
		src:      src,
		probe:    probe,
		critOpts: critpath.PredictOpts{PerTenant: true},
		device: func() (DeviceState, error) {
			return DeviceState{Name: "conventional (opaque device GC)",
				Wear: dev.Flash().Wear()}, nil
		},
	}, cfg)
}

// E14HostFTL runs the same tenants over ZNS with a host FTL doing paced
// incremental reclamation: the host schedules erasures away from the
// readers (§4.1), so every tenant holds its SLO.
func E14HostFTL(cfg Config) (E14Result, error) {
	scaleWP, wpScale := wpSerialScale(cfg)
	dev, err := zns.New(zns.Config{Geom: e6Geometry(),
		Lat:        scaledLatencies(cfg, flash.LatenciesFor(flash.TLC), true),
		ZoneBlocks: 1, ScaleWPSerial: scaleWP, WPSerialScale: wpScale})
	if err != nil {
		return E14Result{}, err
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
		return E14Result{}, err
	}
	probe := attrProbe(cfg)
	f.SetProbe(probe)
	exemplarArm(cfg, probe, "host FTL on ZNS (paced GC + streams)",
		critpath.PredictOpts{ErasesAreResets: true, PerTenant: true},
		znsDevSnap(dev, e6Geometry(), hostReclaim(f)))
	sink := probe.Attribution()
	aud := dev.AttachAuditor()
	src := workload.NewSource(cfg.Seed)
	var at sim.Time
	third := f.CapacityPages() / 3
	// Same owner-tagged prefill and full-device hot/cold aging as the
	// conventional stack — but the host routes hot and cold writes to
	// separate streams, application knowledge the opaque device never had.
	hcAll := workload.NewHotCold(src, f.CapacityPages(), 0.1, 0.9)
	streamOf := func(lpn int64) int {
		if hcAll.IsHot(lpn) {
			return 0
		}
		return 1
	}
	write := func(lpn int64) error {
		sink.PushWorker(e14TenantOf(lpn, third))
		var werr error
		at, werr = f.WriteStream(at, lpn, streamOf(lpn), nil)
		sink.PopWorker()
		return werr
	}
	for lpn := int64(0); lpn < f.CapacityPages(); lpn++ {
		if err := write(lpn); err != nil {
			return E14Result{}, err
		}
	}
	for i := int64(0); i < f.CapacityPages(); i++ { // age to steady state
		if err := write(hcAll.Next()); err != nil {
			return E14Result{}, err
		}
	}
	return e14Measure(e14Stack{
		name: "host FTL on ZNS (paced GC + streams)",
		write: func(t sim.Time, lpn int64) (sim.Time, error) {
			return f.WriteStream(t, lpn, streamOf(lpn), nil)
		},
		read: func(t sim.Time, lpn int64) (sim.Time, error) {
			done, _, err := f.Read(t, lpn)
			return done, err
		},
		maintain: func(t sim.Time) (sim.Time, error) {
			f.MaintenanceStep(t, 2, 12)
			return t, nil
		},
		capacity: f.CapacityPages(),
		at:       at,
		src:      src,
		probe:    probe,
		critOpts: critpath.PredictOpts{ErasesAreResets: true, PerTenant: true},
		device: func() (DeviceState, error) {
			if err := aud.Check(); err != nil {
				return DeviceState{}, err
			}
			return deviceState("host FTL on ZNS (paced GC + streams)", dev, aud), nil
		},
	}, cfg)
}

func runE14(cfg Config) (Report, error) {
	r := Report{
		ID:         "E14",
		Title:      "Noisy neighbor: per-tenant SLOs and blame attribution",
		PaperClaim: "host-scheduled reclamation keeps co-tenants inside their SLOs; the blame matrix quantifies conventional-GC interference tenant by tenant",
		Header: []string{"Configuration", "Tenant", "Ops/s", "Mean (us)",
			"p50 (us)", "p99 (us)", "SLO"},
	}
	var conv, host E14Result
	if err := runParts(cfg, part(&conv, E14Conventional), part(&host, E14HostFTL)); err != nil {
		return r, err
	}
	for _, e := range []E14Result{conv, host} {
		verdictOf := func(t telemetry.TenantID) string {
			for _, res := range e.SLO {
				if res.SLO.Tenant == t {
					if res.OK {
						return "PASS"
					}
					return "FAIL"
				}
			}
			return "-"
		}
		for _, st := range e.Streams {
			r.AddRow(e.Name, st.Name, fmt.Sprintf("%.0f", st.Rate),
				fmt.Sprintf("%.0f", st.Lat.Mean.Micros()),
				fmt.Sprintf("%.0f", st.Lat.P50.Micros()),
				fmt.Sprintf("%.0f", st.Lat.P99.Micros()),
				verdictOf(st.Tenant))
		}
		r.AddBreakdown(e.Name, e.Attr)
		r.AddCrit(cfg, e.Name, e.Crit, e.CritOpts, e.Attr)
		r.AddExemplars(cfg, e.Name, e.Exem, e.CritOpts, e.ExemNames)
		r.AddTenants(e.Name, e.Tenants, e.SLO)
		r.AddDeviceState(e.Device)
		for _, st := range e.Streams {
			if st.Tenant != e14Web {
				continue
			}
			r.Bench = append(r.Bench, BenchEntry{
				Experiment: "E14", Name: e.Name + "/web",
				WritePPS:    churnRate(e.Streams),
				ReadMeanUs:  st.Lat.Mean.Micros(),
				ReadP50Us:   st.Lat.P50.Micros(),
				ReadP90Us:   st.Lat.P90.Micros(),
				ReadP99Us:   st.Lat.P99.Micros(),
				ReadP999Us:  st.Lat.P999.Micros(),
				WriteP99Us:  churnP99(e.Streams),
				Attribution: e.Attr.Dump(),
				CritPath:    critBench(e.Crit, e.CritOpts),
				Exemplars:   e.Exem.Bench(),
			})
		}
	}
	okCount := func(rs []telemetry.SLOResult) int {
		n := 0
		for _, res := range rs {
			if res.OK {
				n++
			}
		}
		return n
	}
	r.AddNote("SLOs held: conventional %d/%d, host FTL on ZNS %d/%d",
		okCount(conv.SLO), len(conv.SLO), okCount(host.SLO), len(host.SLO))
	return r, nil
}

// churnRate and churnP99 pull the churn stream's stats for the bench entry.
func churnRate(streams []StreamResult) float64 {
	for _, st := range streams {
		if st.Tenant == e14Churn {
			return st.Rate
		}
	}
	return 0
}

func churnP99(streams []StreamResult) float64 {
	for _, st := range streams {
		if st.Tenant == e14Churn {
			return st.Lat.P99.Micros()
		}
	}
	return 0
}
