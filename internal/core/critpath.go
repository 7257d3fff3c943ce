package core

import (
	"fmt"
	"sort"
	"strings"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// This file wires the critical-path recorder and what-if engine into the
// experiment harness: scenario-scaled timing parameters (the ground truth
// counterfactual runs the engine's predictions are validated against) and
// the "critical path & what-if" report section, which Report.addWindow
// fills from a measured window (window.go).

// scaledLatencies applies cfg.Scenario's service-phase factors to the
// flash timing parameters — the ground-truth counterfactual a what-if
// prediction is checked against. nand_read/nand_program/bus_xfer map to
// their parameters directly; the erase parameter takes the nand_erase
// factor and, on zoned stacks (where every erase is a zone reset), the
// zone_reset factor too. wp_serial is not a flash parameter — see
// wpSerialScale.
func scaledLatencies(cfg Config, base flash.Latencies, zoned bool) flash.Latencies {
	sc := cfg.Scenario
	if sc == nil {
		return base
	}
	scale := func(t sim.Time, f float64) sim.Time { return sim.Time(float64(t) * f) }
	out := base
	out.ReadPage = scale(base.ReadPage, sc.Factor(telemetry.PhaseNANDRead))
	out.ProgramPage = scale(base.ProgramPage, sc.Factor(telemetry.PhaseNANDProgram))
	out.XferPage = scale(base.XferPage, sc.Factor(telemetry.PhaseXfer))
	ef := sc.Factor(telemetry.PhaseNANDErase)
	if zoned {
		ef *= sc.Factor(telemetry.PhaseZoneReset)
	}
	out.EraseBlock = scale(base.EraseBlock, ef)
	return out
}

// wpSerialScale maps cfg.Scenario's wp_serial factor onto the ZNS
// early-ack knobs: factor f means the host observes only fraction f of the
// write-pointer serialization delay. The device model can only remove
// serialization, not invent more, so factors above 1 are clamped to 1
// (no change).
func wpSerialScale(cfg Config) (bool, float64) {
	if cfg.Scenario == nil {
		return false, 0
	}
	f := cfg.Scenario.Factor(telemetry.PhaseWPSerial)
	if f >= 1 {
		return false, 0
	}
	return true, f
}

// CritSection is one configuration's critical-path block: the recorder
// snapshot over the measured window, the replay-model options for its
// stack, and the exactly measured attribution the prediction ratios are
// applied to.
type CritSection struct {
	Name string
	Snap critpath.Snapshot
	Opts critpath.PredictOpts
	Attr telemetry.AttrSnapshot
	// Scenarios are the what-if counterfactuals the section answers
	// (canonical three, plus the run's own when it is a -whatif run).
	Scenarios []critpath.Scenario
}

// critScenarios returns the what-if scenarios a report answers: the three
// canonical counterfactuals plus, when the run itself is counterfactual
// (znsbench -whatif), the run's own scenario — so a ground-truth run
// prints the prediction it validates.
func critScenarios(cfg Config) []critpath.Scenario {
	out := critpath.Canonical()
	if cfg.Scenario != nil {
		for _, sc := range out {
			if sc.Name == cfg.Scenario.Name {
				return out
			}
		}
		out = append(out, *cfg.Scenario)
	}
	return out
}

// formatCritSection renders one configuration's critical-path block:
// the exact-sum invariant verdict, the per-op phase ranking with separate
// critical-path vs total columns, and the what-if predictions (sampled
// ratios applied to the exactly measured base metrics).
func formatCritSection(b *strings.Builder, cs CritSection) {
	fmt.Fprintf(b, "critical path & what-if — %s:\n", cs.Name)
	if cs.Snap.Violations == 0 {
		fmt.Fprintf(b, "  path==latency: exact over %d IOs (0 violations); %d paths sampled (stride %d)\n",
			cs.Snap.IOs, len(cs.Snap.Paths), cs.Snap.Stride)
	} else {
		fmt.Fprintf(b, "  WARNING: %d critical-path invariant violations over %d IOs\n",
			cs.Snap.Violations, cs.Snap.IOs)
	}
	for _, od := range cs.Snap.Dump() {
		fmt.Fprintf(b, "  %-5s n=%-8d mean=%8.1fus  phases by critical-path ticks:\n",
			od.Op, od.Count, od.MeanUs)
		phases := append([]critpath.PhasePathDump(nil), od.Phases...)
		sort.SliceStable(phases, func(i, j int) bool { return phases[i].PathUs > phases[j].PathUs })
		for _, ph := range phases {
			fmt.Fprintf(b, "    %-12s path=%8.1fus (%5.1f%%)  total=%8.1fus%s\n",
				ph.Name, ph.PathUs, ph.PathFrac*100, ph.TotalUs, bindSuffix(ph))
		}
	}
	ad := cs.Attr.Dump()
	fmt.Fprintf(b, "  what-if (sampled ratio x measured base):\n")
	for _, sc := range cs.Scenarios {
		for _, p := range cs.Snap.Predict(sc, cs.Opts) {
			if p.Tenant >= 0 {
				fmt.Fprintf(b, "    %-16s %-5s [tenant %d] mean x%.3f  p99 x%.3f  p999 x%.3f (sampled base mean=%.1fus)\n",
					p.Scenario, p.Op, p.Tenant, p.MeanRatio, p.P99Ratio, p.P999Ratio, p.BaseMean)
				continue
			}
			base, ok := ad.Ops[p.Op]
			if !ok {
				continue
			}
			fmt.Fprintf(b, "    %-16s %-5s mean %8.1f -> %8.1fus (x%.3f)  p99 %8.1f -> %8.1fus (x%.3f)  p999 %8.1f -> %8.1fus (x%.3f)\n",
				p.Scenario, p.Op,
				base.MeanUs, base.MeanUs*p.MeanRatio, p.MeanRatio,
				base.P99Us, base.P99Us*p.P99Ratio, p.P99Ratio,
				base.P999Us, base.P999Us*p.P999Ratio, p.P999Ratio)
		}
	}
}

// critBench converts a snapshot to the optional bench-entry block (nil
// when the window recorded no paths, keeping older entries byte-stable).
func critBench(snap critpath.Snapshot, opts critpath.PredictOpts) *critpath.BenchSummary {
	if snap.IOs == 0 {
		return nil
	}
	b := snap.Bench(opts)
	return &b
}

// bindSuffix renders a wait phase's queued-behind split.
func bindSuffix(ph critpath.PhasePathDump) string {
	if len(ph.Binds) == 0 {
		return ""
	}
	parts := make([]string, 0, len(ph.Binds))
	for _, bd := range ph.Binds {
		parts = append(parts, fmt.Sprintf("%s %.1fus", bd.Name, bd.Us))
	}
	return "  behind: " + strings.Join(parts, ", ")
}
