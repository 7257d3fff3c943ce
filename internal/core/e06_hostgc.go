package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "E6",
		Title:      "Host-scheduled reclamation (IBM SALSA on ZNS, §2.4)",
		PaperClaim: "22x lower tail latencies, 65% higher application throughput",
		Run:        runE6,
	})
}

func e6Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096}
}

// The fixed offered load for the tail phase: ~55% of the conventional
// configuration's measured write capacity, so both stacks are stable and
// tails reflect reclamation interference rather than saturation.
const (
	e6ReadRate  = 2000.0
	e6WriteRate = 700.0
	// Maintenance ticks: paced so the worst case (budget copies + one
	// erase per tick) injects well under the device's spare bandwidth —
	// ~800 copies/s against a ~175 copies/s requirement at the offered
	// load. Pacing is the whole point: reclamation must never arrive in
	// bursts the reads can feel (§4.1).
	e6MaintTickRate = 400.0
)

func e6MaintRate(m OpFunc) float64 {
	if m == nil {
		return 0
	}
	return e6MaintTickRate
}

// e6Measure prefills and ages one stack, then drives it in two phases:
// closed-loop write throughput (phase A), then read tail latency under a
// fixed offered load (phase B).
func e6Measure(s stack, cfg Config) (LatResult, error) {
	durA, durB, warm := 1*sim.Second, 2*sim.Second, 250*sim.Millisecond
	if cfg.Quick {
		durA, durB, warm = 300*sim.Millisecond, 500*sim.Millisecond, 100*sim.Millisecond
	}
	src := workload.NewSource(cfg.Seed)
	hc := workload.NewHotCold(src, s.capacity, 0.1, 0.9)
	rKeys := workload.NewUniform(src, s.capacity)
	write := func(t sim.Time) (sim.Time, error) {
		k := hc.Next()
		return s.write(t, k, hc.IsHot(k))
	}
	// Prefill every page in order (the host stack puts it all on its hot
	// stream), then age to steady state under the skewed workload.
	var at sim.Time
	var err error
	for lpn := int64(0); lpn < s.capacity; lpn++ {
		if at, err = s.write(at, lpn, true); err != nil {
			return LatResult{}, err
		}
	}
	for i := int64(0); i < s.capacity; i++ {
		if at, err = write(at); err != nil {
			return LatResult{}, err
		}
	}
	read := func(t sim.Time) (sim.Time, error) { return s.read(t, rKeys.Next()) }
	h0, p0 := s.counters()
	// Phase A: closed-loop throughput.
	resA := RunMixed(MixedCfg{
		Writers: 2, Write: write,
		Start: at, Duration: durA, Warmup: warm, Src: src,
		Probe: s.probe,
	})
	if resA.Err != nil {
		return LatResult{}, resA.Err
	}
	// Phase B: fixed offered load, measure read tails. The host stack runs
	// its reclamation as a separate paced stream. The measured window
	// covers this phase only — it is the one the tail claims are about.
	out := LatResult{window: s.window, WritePagesPS: resA.WriteScale}
	err = out.measure(s.probe, func() error {
		resB := RunMixed(MixedCfg{
			WriteRate: e6WriteRate, Write: write,
			ReadRate: e6ReadRate, Read: read,
			AuxRate: e6MaintRate(s.maintain), Aux: s.maintain,
			Start: at + durA, Duration: durB, Warmup: warm, Src: src,
			Probe: s.probe,
		})
		out.setLat(resB)
		return resB.Err
	})
	if err != nil {
		return LatResult{}, err
	}
	h1, p1 := s.counters()
	out.WA = float64(p1-p0) / float64(h1-h0)
	out.Device, err = s.device()
	return out, err
}

// E6Conventional is the baseline: a skewed block workload on a conventional
// SSD whose opaque FTL does foreground GC.
func E6Conventional(cfg Config) (LatResult, error) {
	s, err := convStack(cfg, "conventional (opaque device GC)", e6Geometry(), 0.11, critpath.PredictOpts{})
	if err != nil {
		return LatResult{}, err
	}
	return e6Measure(s, cfg)
}

// E6HostFTL is the SALSA-style configuration: a host log-structured
// translation layer over ZNS with incremental reclamation spread across
// writes, simple-copy relocation, and hot/cold stream separation from
// application knowledge the device never had (§4.1).
func E6HostFTL(cfg Config) (LatResult, error) {
	s, err := hostStack(cfg, critpath.PredictOpts{ErasesAreResets: true})
	if err != nil {
		return LatResult{}, err
	}
	return e6Measure(s, cfg)
}

func runE6(cfg Config) (Report, error) {
	r := Report{
		ID:         "E6",
		Title:      "Host-scheduled GC vs device-opaque GC",
		PaperClaim: "host stack: 22x lower tail latency, 65% higher throughput (IBM SALSA)",
		Header: []string{"Configuration", "Write pages/s", "WA",
			"Read mean (us)", "Read p99 (us)", "Read p999 (us)"},
	}
	var conv, host LatResult
	if err := runParts(cfg, part(&conv, E6Conventional), part(&host, E6HostFTL)); err != nil {
		return r, err
	}
	for _, e := range []LatResult{conv, host} {
		addE6Row(&r, e)
		r.addWindow(cfg, e.window)
		r.Bench = append(r.Bench, e.bench("E6"))
	}
	r.AddNote("tail ratio (p999 conv/host): %.1fx; throughput gain: %.0f%%",
		float64(conv.ReadP999)/float64(host.ReadP999),
		(host.WritePagesPS/conv.WritePagesPS-1)*100)
	return r, nil
}

// addE6Row appends e as a row of E6's or A5's table.
func addE6Row(r *Report, e LatResult) {
	r.AddRow(e.Name, fmt.Sprintf("%.0f", e.WritePagesPS), fmt.Sprintf("%.2f", e.WA),
		fmt.Sprintf("%.0f", e.ReadMean.Micros()),
		fmt.Sprintf("%.0f", e.ReadP99.Micros()),
		fmt.Sprintf("%.0f", e.ReadP999.Micros()))
}
