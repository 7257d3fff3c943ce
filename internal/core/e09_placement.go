package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/placement"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:         "E9",
		Title:      "Lifetime-aware data placement (§4.1)",
		PaperClaim: "grouping data into zones by expected expiry minimizes copying; more application information -> lower write amplification",
		Run:        runE9,
	})
}

// e9Lifetimes: eight log-spaced lifetime classes. The workload mixes them
// uniformly, so an uninformed placement interleaves data whose deaths are
// 100x apart.
func e9Lifetimes() []sim.Time {
	out := make([]sim.Time, 8)
	l := 4 * sim.Millisecond
	for i := range out {
		out[i] = l
		l *= 2
	}
	return out
}

// E9Run measures the object store's WA under one placement policy.
// spread == 0 draws exponential lifetimes (unpredictable deaths: the class
// hint carries little information); spread > 0 draws uniform +-spread
// lifetimes (predictable deaths: the hint nearly equals the death time).
func E9Run(policy placement.Policy, spread float64, cfg Config) (float64, error) {
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
			BlocksPerLUN: 64, PagesPerBlock: 64, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4, // 64 zones of 256 pages (64 objects per zone)
	})
	if err != nil {
		return 0, err
	}
	store, err := placement.NewStore(dev, policy)
	if err != nil {
		return 0, err
	}
	var gen *workload.ObjectGen
	if spread > 0 {
		gen = workload.NewObjectGenSpread(workload.NewSource(cfg.Seed), 4, e9Lifetimes(), spread)
	} else {
		gen = workload.NewObjectGen(workload.NewSource(cfg.Seed), 4, e9Lifetimes())
	}
	writes := 30000
	if cfg.Quick {
		writes = 8000
	}
	var at sim.Time
	for i := 0; i < writes; i++ {
		at += 44 * sim.Microsecond
		store.ExpireUpTo(at)
		if _, err := store.Put(at, gen.Next(at)); err != nil {
			return 0, fmt.Errorf("%s put %d: %w", policy.Name(), i, err)
		}
	}
	return store.WriteAmp(), nil
}

func runE9(cfg Config) (Report, error) {
	r := Report{
		ID:         "E9",
		Title:      "Write amplification vs placement information",
		PaperClaim: "WA falls as placement uses more lifetime information; the oracle bounds the benefit",
		Header:     []string{"Policy", "Information used", "WA (predictable)", "WA (exponential)"},
	}
	classes := len(e9Lifetimes())
	policies := []struct {
		p    placement.Policy
		info string
	}{
		{placement.SingleStream{}, "none (conventional-FTL equivalent)"},
		{&placement.RoundRobin{K: 4}, "none (spread only)"},
		{placement.ByClass{K: 2, Classes: classes}, "coarse app hint (2 groups)"},
		{placement.ByClass{K: 4, Classes: classes}, "app hint (4 groups)"},
		{placement.ByClass{K: classes, Classes: classes}, "full app hint (8 groups)"},
		{placement.Oracle{K: classes, Base: 8 * sim.Millisecond}, "actual death time"},
	}
	// One part per policy row, not per run: a row's two runs share its
	// policy value (RoundRobin's cursor), so the row is the smallest unit
	// that shares no mutable state.
	type row struct{ predict, exp float64 }
	rows := make([]row, len(policies))
	tasks := make([]partTask, len(policies))
	for i, pc := range policies {
		tasks[i] = part(&rows[i], func(c Config) (row, error) {
			waPredict, err := E9Run(pc.p, 0.3, c)
			if err != nil {
				return row{}, err
			}
			waExp, err := E9Run(pc.p, 0, c)
			if err != nil {
				return row{}, err
			}
			return row{waPredict, waExp}, nil
		})
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for i, pc := range policies {
		r.AddRow(pc.p.Name(), pc.info, fmt.Sprintf("%.2f", rows[i].predict), fmt.Sprintf("%.2f", rows[i].exp))
	}
	r.AddNote("objects: 4 pages, 8 lifetime classes 4ms..512ms, uniform class mix")
	r.AddNote("predictable = +-30%% uniform lifetimes: hints nearly equal death times;")
	r.AddNote("exponential = maximal intra-class variance: hints carry little information,")
	r.AddNote("and only the death-time oracle still wins — quantifying §4.1's question")
	return r, nil
}
