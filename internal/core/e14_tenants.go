package core

import (
	"fmt"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/workload"
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
	window
	Streams []StreamResult
	Tenants telemetry.TenantSnapshot
	SLO     []telemetry.SLOResult
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

// e14Measure prefills and ages one stack, then drives the three tenant
// streams against it and evaluates the SLOs over the run's windows.
func e14Measure(s stack, cfg Config) (E14Result, error) {
	dur, warm := 2*sim.Second, 250*sim.Millisecond
	if cfg.Quick {
		dur, warm = 500*sim.Millisecond, 100*sim.Millisecond
	}
	sink := s.probe.Attribution()
	src := workload.NewSource(cfg.Seed)
	hcAll := workload.NewHotCold(src, s.capacity, 0.1, 0.9)
	third := s.capacity / 3
	var at sim.Time
	// Prefill and age the whole device under each page's owning tenant. The
	// conventional FTL cannot tell tenants apart, so its aged flash blocks
	// interleave everyone's pages — exactly the state that makes one
	// tenant's churn everyone's GC problem. The host routes hot and cold
	// writes to separate streams, application knowledge the opaque device
	// never had. Ownership flows through the worker stack so the polluter
	// bookkeeping is right from block 0.
	err := age(s.capacity, s.capacity, hcAll.Next, func(lpn int64) error {
		sink.PushWorker(e14TenantOf(lpn, third))
		var werr error
		at, werr = s.write(at, lpn, hcAll.IsHot(lpn))
		sink.PopWorker()
		return werr
	})
	if err != nil {
		return E14Result{}, err
	}
	e14Names(sink)
	// Fresh window ring + SLO engine per stack: each stack restarts virtual
	// time, and windows must not leak across devices.
	ws := telemetry.NewWindowSet(telemetry.WindowCfg{})
	eng := telemetry.NewSLOEngine(ws)
	e14SLOs(eng)
	sink.Windows, sink.SLO = ws, eng

	base := func(t telemetry.TenantID) int64 { return int64(t-1) * third }
	webKeys := workload.NewUniform(src, third)
	anaKeys := workload.NewUniform(src, third)
	churnKeys := workload.NewHotCold(src, third, 0.1, 0.9)

	out := E14Result{window: s.window}
	beforeTen := sink.TenantSnapshot()
	err = out.measure(s.probe, func() error {
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
						lpn := base(e14Churn) + churnKeys.Next()
						return s.write(at, lpn, hcAll.IsHot(lpn))
					}},
			},
			AuxRate: e6MaintRate(s.maintain), Aux: s.maintain,
			Start: at, Duration: dur, Warmup: warm, Src: src,
			Probe: s.probe,
		})
		out.Streams = res.Streams
		return res.Err
	})
	if err != nil {
		return E14Result{}, err
	}
	out.Tenants = sink.TenantSnapshot().Delta(beforeTen)
	out.SLO = eng.Evaluate()
	out.Device, err = s.device()
	return out, err
}

// E14Conventional shares a conventional SSD between the tenants: the
// device's opaque GC mixes everyone's pages and its stalls land on whoever
// is unlucky enough to be running — the blame matrix charges every stalled
// tick to a culprit tenant, exactly.
func E14Conventional(cfg Config) (E14Result, error) {
	s, err := convStack(cfg, "conventional (opaque device GC)", e6Geometry(), 0.11,
		critpath.PredictOpts{PerTenant: true})
	if err != nil {
		return E14Result{}, err
	}
	return e14Measure(s, cfg)
}

// E14HostFTL runs the same tenants over ZNS with a host FTL doing paced
// incremental reclamation: the host schedules erasures away from the
// readers (§4.1), so every tenant holds its SLO.
func E14HostFTL(cfg Config) (E14Result, error) {
	s, err := hostStack(cfg, critpath.PredictOpts{ErasesAreResets: true, PerTenant: true})
	if err != nil {
		return E14Result{}, err
	}
	return e14Measure(s, cfg)
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
		r.addWindow(cfg, e.window)
		r.AddTenants(e.Name, e.Tenants, e.SLO)
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
