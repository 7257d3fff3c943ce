package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// The ablations test the design decisions DESIGN.md calls out: GC victim
// policy, zone stripe width, the shared-flash ceiling both devices inherit,
// and trim support on the conventional baseline.

func init() {
	register(Experiment{
		ID:         "A1",
		Title:      "Ablation: GC victim policy (greedy vs cost-benefit)",
		PaperClaim: "§4.1 asks how the optimal GC algorithm changes with information; policy matters most under skew",
		Run:        runA1,
	})
	register(Experiment{
		ID:         "A2",
		Title:      "Ablation: zone stripe width",
		PaperClaim: "wide zones buy intra-zone parallelism; narrow zones buy fine-grained reclamation",
		Run:        runA2,
	})
	register(Experiment{
		ID:         "A3",
		Title:      "Ablation: shared-flash ceiling",
		PaperClaim: "both device models run on the same flash, so comparisons isolate the interface",
		Run:        runA3,
	})
	register(Experiment{
		ID:         "A4",
		Title:      "Ablation: trim support on the conventional device",
		PaperClaim: "without trim the FTL copies dead file data; even with it, the information gap remains",
		Run:        runA4,
	})
}

// runA1 compares GC victim policies under uniform and skewed churn.
func runA1(cfg Config) (Report, error) {
	r := Report{
		ID:     "A1",
		Title:  "GC policy vs workload skew",
		Header: []string{"Workload", "Greedy WA", "Cost-benefit WA"},
	}
	churn := 3
	if cfg.Quick {
		churn = 2
	}
	// One part per (skew, policy) cell: each builds its own device.
	skews := []bool{false, true}
	policies := []ftl.GCPolicy{ftl.Greedy, ftl.CostBenefit}
	was := make([]float64, len(skews)*len(policies))
	var tasks []partTask
	for si, skewed := range skews {
		for pi, policy := range policies {
			tasks = append(tasks, part(&was[si*len(policies)+pi], func(c Config) (float64, error) {
				return a1Cell(policy, skewed, churn, c.Seed)
			}))
		}
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for si, skewed := range skews {
		name := "uniform"
		if skewed {
			name = "hot/cold 90/10"
		}
		cell := was[si*len(policies):]
		r.AddRow(name, fmt.Sprintf("%.2f", cell[0]), fmt.Sprintf("%.2f", cell[1]))
	}
	return r, nil
}

// a1Cell fills a 7%-OP device, churns it churn times over with uniform or
// hot/cold keys, and returns the churn phase's write amplification.
func a1Cell(policy ftl.GCPolicy, skewed bool, churn int, seed int64) (float64, error) {
	dev, err := ftl.New(ftl.Config{
		Geom:              e2Geometry(),
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.07,
		GCPolicy:          policy,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
	if err != nil {
		return 0, err
	}
	var at sim.Time
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			return 0, err
		}
	}
	src := workload.NewSource(seed)
	next := workload.NewUniform(src, dev.CapacityPages()).Next
	if skewed {
		next = workload.NewHotCold(src, dev.CapacityPages(), 0.1, 0.9).Next
	}
	base := *dev.Counters()
	for i := int64(0); i < dev.CapacityPages()*int64(churn); i++ {
		if at, err = dev.WritePage(at, next(), nil); err != nil {
			return 0, err
		}
	}
	c := *dev.Counters()
	return float64(c.FlashProgramPages-base.FlashProgramPages) /
		float64(c.HostWritePages-base.HostWritePages), nil
}

// runA2 sweeps the zone stripe width: sequential fill throughput (wide
// wins) vs reset granularity (narrow wins).
func runA2(cfg Config) (Report, error) {
	r := Report{
		ID:     "A2",
		Title:  "Zone stripe width: parallelism vs granularity",
		Header: []string{"ZoneBlocks", "Zone size", "Fill pages/s", "Reset cost (ms)"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		dev, err := zns.New(zns.Config{
			Geom: flash.Geometry{Channels: 8, DiesPerChan: 1, PlanesPerDie: 1,
				BlocksPerLUN: 8, PagesPerBlock: 64, PageSize: 4096},
			Lat:        flash.LatenciesFor(flash.TLC),
			ZoneBlocks: w,
		})
		if err != nil {
			return r, err
		}
		// Fill zone 0 at high queue depth: all appends issued immediately,
		// so the stripe's LUN parallelism shows up as overlap.
		var at sim.Time
		for o := int64(0); o < dev.ZonePages(); o++ {
			_, done, err := dev.Append(0, 0, nil)
			if err != nil {
				return r, err
			}
			at = sim.Max(at, done)
		}
		fillRate := float64(dev.ZonePages()) / at.Seconds()
		resetDone, err := dev.Reset(at, 0)
		if err != nil {
			return r, err
		}
		r.AddRow(fmt.Sprint(w),
			fmt.Sprintf("%d KiB", dev.ZonePages()*4),
			fmt.Sprintf("%.0f", fillRate),
			fmt.Sprintf("%.1f", (resetDone-at).Millis()))
	}
	r.AddNote("fill at high queue depth: throughput scales with the stripe's LUN count; reset cost is one erase regardless (erases run in parallel across the stripe)")
	return r, nil
}

// runA3 measures the raw flash ceiling and both devices' sequential
// throughput against it.
func runA3(cfg Config) (Report, error) {
	r := Report{
		ID:     "A3",
		Title:  "Shared-flash ceiling",
		Header: []string{"Layer", "Sequential write pages/s", "% of raw"},
	}
	geom := e4Geometry()
	raw, err := E12SequentialThroughput(geom.Channels)
	if err != nil {
		return r, err
	}

	// Conventional, fresh device, sequential fill at high queue depth.
	conv, err := ftl.NewDefault(geom, flash.LatenciesFor(flash.TLC), 0.07)
	if err != nil {
		return r, err
	}
	var at sim.Time
	for lpn := int64(0); lpn < conv.CapacityPages(); lpn++ {
		done, err := conv.WritePage(0, lpn, nil)
		if err != nil {
			return r, err
		}
		at = sim.Max(at, done)
	}
	convRate := float64(conv.CapacityPages()) / at.Seconds()

	// ZNS, fresh device, fill all zones round-robin at high queue depth.
	zd, err := zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4})
	if err != nil {
		return r, err
	}
	at = 0
	total := int64(zd.NumZones()) * zd.ZonePages()
	for o := int64(0); o < zd.ZonePages(); o++ {
		for z := 0; z < zd.NumZones(); z++ {
			_, done, err := zd.Append(0, z, nil)
			if err != nil {
				return r, err
			}
			at = sim.Max(at, done)
		}
	}
	znsRate := float64(total) / at.Seconds()

	r.AddRow("raw flash", fmt.Sprintf("%.0f", raw), "100%")
	r.AddRow("conventional FTL (fresh)", fmt.Sprintf("%.0f", convRate),
		fmt.Sprintf("%.0f%%", convRate/raw*100))
	r.AddRow("zns (fresh)", fmt.Sprintf("%.0f", znsRate),
		fmt.Sprintf("%.0f%%", znsRate/raw*100))
	r.AddNote("fresh sequential fills: both interfaces reach the flash ceiling; they part ways under churn (E2, E4)")
	return r, nil
}

// runA4 re-runs the E2-style churn with and without trim after deleting
// half the logical space.
func runA4(cfg Config) (Report, error) {
	r := Report{
		ID:     "A4",
		Title:  "Trim support under file churn",
		Header: []string{"Trim", "WriteAmp"},
	}
	churn := int64(3)
	if cfg.Quick {
		churn = 2
	}
	for _, trim := range []bool{true, false} {
		dev, err := ftl.New(ftl.Config{
			Geom:              e2Geometry(),
			Lat:               flash.LatenciesFor(flash.TLC),
			OPFraction:        0.07,
			HotColdSeparation: true,
			TrimSupported:     trim,
		})
		if err != nil {
			return r, err
		}
		var at sim.Time
		for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
			if at, err = dev.WritePage(at, lpn, nil); err != nil {
				return r, err
			}
		}
		// Delete half the space (dead files), then churn the other half.
		half := dev.CapacityPages() / 2
		if err := dev.Trim(at, 0, half); err != nil {
			return r, err
		}
		src := workload.NewSource(cfg.Seed)
		keys := workload.NewUniform(src, half)
		base := *dev.Counters()
		for i := int64(0); i < half*churn; i++ {
			if at, err = dev.WritePage(at, half+keys.Next(), nil); err != nil {
				return r, err
			}
		}
		c := *dev.Counters()
		wa := float64(c.FlashProgramPages-base.FlashProgramPages) /
			float64(c.HostWritePages-base.HostWritePages)
		label := "on"
		if !trim {
			label = "off"
		}
		r.AddRow(label, fmt.Sprintf("%.2f", wa))
	}
	r.AddNote("without trim the FTL must copy pages of deleted files forward forever")
	return r, nil
}
