package core

import (
	"blockhead/internal/flash"
	"blockhead/internal/ftl"
)

func init() {
	register(Experiment{
		ID:         "A5",
		Title:      "Ablation: how much of the tail argument survives a smarter device?",
		PaperClaim: "even a device that paces its own GC cannot use application information — the tail gap narrows, the WA/cost gaps do not",
		Run:        runA5,
	})
}

// E6ConventionalIncremental is E6's baseline device upgraded with
// device-side incremental GC — the strongest conventional controller our
// model supports.
func E6ConventionalIncremental(cfg Config) (LatResult, error) {
	dev, err := ftl.New(ftl.Config{
		Geom:              e6Geometry(),
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.11,
		GCMode:            ftl.GCDeviceIncremental,
		GCChunkPages:      8,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
	if err != nil {
		return LatResult{}, err
	}
	return e6Measure(convOn(dev, "conventional (device-incremental GC)"), cfg)
}

func runA5(cfg Config) (Report, error) {
	r := Report{
		ID:         "A5",
		Title:      "Foreground vs device-incremental vs host-scheduled GC",
		PaperClaim: "pacing helps any controller; application information helps only the host",
		Header: []string{"Configuration", "Write pages/s", "WA",
			"Read mean (us)", "Read p99 (us)", "Read p999 (us)"},
	}
	fg, err := E6Conventional(cfg)
	if err != nil {
		return r, err
	}
	inc, err := E6ConventionalIncremental(cfg)
	if err != nil {
		return r, err
	}
	host, err := E6HostFTL(cfg)
	if err != nil {
		return r, err
	}
	for _, e := range []LatResult{fg, inc, host} {
		addE6Row(&r, e)
	}
	r.AddNote("pacing buys the device only a modest p999 improvement (%.1fx) and costs it",
		float64(fg.ReadP999)/float64(inc.ReadP999))
	r.AddNote("write amplification (earlier triggers pick poorer victims); the host still")
	r.AddNote("wins tails by %.0fx and WA by %.1fx — controller smarts cannot substitute",
		float64(fg.ReadP999)/float64(host.ReadP999), inc.WA/host.WA)
	r.AddNote("for application information (§4.1) or remove the DRAM/OP costs (E3/E11)")
	return r, nil
}
