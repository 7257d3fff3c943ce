package critpath

import (
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// OpDump is one op kind's critical-path decomposition.
type OpDump struct {
	Op     string
	Count  uint64
	MeanUs float64
	Phases []PhasePathDump
}

// PhasePathDump is one phase of an op's decomposition. PathUs is the mean
// per-IO time this phase spent *on* the critical path (bounding
// completion); TotalUs adds the off-path ticks — the same phase's work
// that ran concurrently under a composite stall. PathFrac is the phase's
// share of the op's end-to-end latency. Binds splits a wait phase's
// on-path ticks by the service phase waited behind.
type PhasePathDump struct {
	Name     string
	PathUs   float64
	TotalUs  float64
	PathFrac float64
	Binds    []BindDump
}

// BindDump is one bound slice of a wait phase.
type BindDump struct {
	Name string
	Us   float64
}

// Dump decomposes each op kind's latency by phase, on and off the critical
// path, for the report's critical-path sections. Ops with no completed IOs
// are omitted.
func (s *Snapshot) Dump() []OpDump {
	var out []OpDump
	for k := 0; k < telemetry.NumOps; k++ {
		a := s.Ops[k]
		if a.Count == 0 {
			continue
		}
		od := OpDump{
			Op:     telemetry.OpKind(k).String(),
			Count:  a.Count,
			MeanUs: (a.TotalSum / sim.Time(a.Count)).Micros(),
			Phases: []PhasePathDump{},
		}
		n := sim.Time(a.Count)
		for p := 0; p < telemetry.NumPhases; p++ {
			if a.Path[p] == 0 && a.Off[p] == 0 {
				continue
			}
			pd := PhasePathDump{
				Name:    telemetry.Phase(p).String(),
				PathUs:  (a.Path[p] / n).Micros(),
				TotalUs: ((a.Path[p] + a.Off[p]) / n).Micros(),
			}
			if a.TotalSum > 0 {
				pd.PathFrac = float64(a.Path[p]) / float64(a.TotalSum)
			}
			if wi := telemetry.WaitIdx(telemetry.Phase(p)); wi >= 0 {
				for b := 0; b < telemetry.NumBinds; b++ {
					w := a.WaitBy[wi][b]
					if w == 0 {
						continue
					}
					pd.Binds = append(pd.Binds, BindDump{
						Name: telemetry.BindPhase(b).String(),
						Us:   (w / n).Micros(),
					})
				}
			}
			od.Phases = append(od.Phases, pd)
		}
		out = append(out, od)
	}
	return out
}

// BenchSummary is the critpath block of a core.BenchEntry: the headline
// invariant counters, the top critical-path phase, and the canonical
// what-if ratios, so the committed bench JSON pins prediction drift.
type BenchSummary struct {
	IOs         uint64        `json:"ios"`
	Violations  uint64        `json:"violations"`
	Sampled     int           `json:"sampled"`
	TopPhase    string        `json:"top_phase"`
	TopPathFrac float64       `json:"top_path_frac"`
	WhatIf      []WhatIfBench `json:"whatif"`
}

// WhatIfBench is one canonical scenario's headline prediction ratios
// (predicted/base; 1 = no change).
type WhatIfBench struct {
	Scenario       string  `json:"scenario"`
	ReadMeanRatio  float64 `json:"read_mean_ratio"`
	ReadP99Ratio   float64 `json:"read_p99_ratio"`
	WriteMeanRatio float64 `json:"write_mean_ratio"`
	WriteP99Ratio  float64 `json:"write_p99_ratio"`
}

// Bench summarizes the snapshot for a benchmark entry. The top phase
// excludes host_queue (admission backlog is a workload property, not a
// device optimization target) and ranks by on-path ticks summed over ops.
func (s *Snapshot) Bench(opts PredictOpts) BenchSummary {
	b := BenchSummary{
		IOs:        s.IOs,
		Violations: s.Violations,
		Sampled:    len(s.Paths),
	}
	var totalSum sim.Time
	var pathSum [telemetry.NumPhases]sim.Time
	for k := 0; k < telemetry.NumOps; k++ {
		totalSum += s.Ops[k].TotalSum
		for p := 0; p < telemetry.NumPhases; p++ {
			pathSum[p] += s.Ops[k].Path[p]
		}
	}
	top, topTicks := telemetry.Phase(-1), sim.Time(0)
	for p := 0; p < telemetry.NumPhases; p++ {
		if telemetry.Phase(p) == telemetry.PhaseHostQueue {
			continue
		}
		if pathSum[p] > topTicks {
			top, topTicks = telemetry.Phase(p), pathSum[p]
		}
	}
	if top >= 0 {
		b.TopPhase = top.String()
		if totalSum > 0 {
			b.TopPathFrac = float64(topTicks) / float64(totalSum)
		}
	}
	for _, sc := range Canonical() {
		wb := WhatIfBench{Scenario: sc.Name, ReadMeanRatio: 1, ReadP99Ratio: 1, WriteMeanRatio: 1, WriteP99Ratio: 1}
		for _, p := range s.Predict(sc, PredictOpts{ErasesAreResets: opts.ErasesAreResets}) {
			switch p.Op {
			case "read":
				wb.ReadMeanRatio, wb.ReadP99Ratio = p.MeanRatio, p.P99Ratio
			case "write":
				wb.WriteMeanRatio, wb.WriteP99Ratio = p.MeanRatio, p.P99Ratio
			}
		}
		b.WhatIf = append(b.WhatIf, wb)
	}
	return b
}
