package core

import (
	"fmt"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "E2",
		Title:      "Write amplification vs. overprovisioning (the paper's §2.2 lab experiment)",
		PaperClaim: "random writes: WA ~15x with no OP, improving to ~2.5x at ~25% OP",
		Run:        runE2,
	})
}

// e2Geometry: 4 LUNs, 512 blocks of 64 pages (128 MiB at 4 KiB pages) —
// large enough that the fixed reserve floor (16 blocks, 3.1%) stays below
// E2's calibrated 4.2% reserve (21 blocks).
func e2Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 128, PagesPerBlock: 64, PageSize: 4096}
}

// E2Point runs the §2.2 experiment at one overprovisioning setting and
// returns the steady-state write amplification. Exposed for the benchmark
// harness and ablations.
func E2Point(op float64, churnMultiple int, seed int64) (wa float64, gcPerHostWrite float64, err error) {
	dev, err := ftl.New(ftl.Config{
		Geom: e2Geometry(),
		Lat:  flash.LatenciesFor(flash.TLC),
		// The fixed reserve is the calibration knob for the left end of the
		// sweep: 4.2% puts the no-OP point at the paper's ~15x.
		ReserveFraction:   0.042,
		OPFraction:        op,
		HotColdSeparation: true,
		TrimSupported:     true,
	})
	if err != nil {
		return 0, 0, err
	}
	var at sim.Time
	// Fill sequentially, then overwrite uniformly at random; measure only
	// the churn phase (steady state), as the paper's lab experiment does.
	for lpn := int64(0); lpn < dev.CapacityPages(); lpn++ {
		if at, err = dev.WritePage(at, lpn, nil); err != nil {
			return 0, 0, err
		}
	}
	base := *dev.Counters()
	keys := workload.NewUniform(workload.NewSource(seed), dev.CapacityPages())
	n := dev.CapacityPages() * int64(churnMultiple)
	for i := int64(0); i < n; i++ {
		if at, err = dev.WritePage(at, keys.Next(), nil); err != nil {
			return 0, 0, err
		}
	}
	c := *dev.Counters()
	host := c.HostWritePages - base.HostWritePages
	programs := c.FlashProgramPages - base.FlashProgramPages
	gc := c.GCCopyPages - base.GCCopyPages
	return float64(programs) / float64(host), float64(gc) / float64(host), nil
}

func runE2(cfg Config) (Report, error) {
	r := Report{
		ID:         "E2",
		Title:      "Write amplification vs. overprovisioning",
		PaperClaim: "~15x at 0% OP -> ~2.5x at ~25% OP (uniform random writes)",
		Header:     []string{"OP %", "WriteAmp", "GC copies/host write"},
	}
	ops := []float64{0, 0.07, 0.11, 0.15, 0.20, 0.25, 0.28}
	churn := 3
	if cfg.Quick {
		ops = []float64{0, 0.11, 0.25}
		churn = 2
	}
	// One part per OP point, each writing its slot; the rows follow in
	// sweep order once every point is in.
	type point struct{ wa, gc float64 }
	points := make([]point, len(ops))
	tasks := make([]partTask, len(ops))
	for i, op := range ops {
		tasks[i] = part(&points[i], func(c Config) (point, error) {
			wa, gc, err := E2Point(op, churn, c.Seed)
			if err != nil {
				return point{}, fmt.Errorf("E2 at OP %.2f: %w", op, err)
			}
			return point{wa, gc}, nil
		})
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for i, op := range ops {
		r.AddRow(fmt.Sprintf("%.0f", op*100), fmt.Sprintf("%.2f", points[i].wa), fmt.Sprintf("%.2f", points[i].gc))
	}
	r.AddNote("greedy GC, 3.5%% fixed reserve (bad-block + GC headroom) at every point")
	return r, nil
}
