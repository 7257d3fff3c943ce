package critpath

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Scale is one counterfactual phase scaling: the phase's cost multiplied
// by Factor (0.5 = twice as fast, 0 = free, 2 = twice as slow).
type Scale struct {
	Phase  telemetry.Phase
	Factor float64
}

// Scenario is a named set of counterfactual phase scalings. The zero
// Scenario is the identity (no phase scaled).
type Scenario struct {
	Name   string
	Scales []Scale
}

// Factor reports the scenario's multiplier for phase p (1 when unscaled).
func (sc Scenario) Factor(p telemetry.Phase) float64 {
	for _, s := range sc.Scales {
		if s.Phase == p {
			return s.Factor
		}
	}
	return 1
}

// ParseScenario parses the CLI/spec form "phase:factor[,phase:factor...]",
// e.g. "nand_program:0.5" or "zone_reset:0,wp_serial:0". Phase names are
// the attribution wire names; factors must lie in [0, 1e6].
func ParseScenario(spec string) (Scenario, error) {
	sc := Scenario{Name: spec}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.IndexByte(part, ':')
		if i < 0 {
			return Scenario{}, fmt.Errorf("critpath: scenario term %q: want phase:factor", part)
		}
		name, factorStr := part[:i], part[i+1:]
		p := telemetry.Phase(-1)
		for q := 0; q < telemetry.NumPhases; q++ {
			if telemetry.Phase(q).String() == name {
				p = telemetry.Phase(q)
				break
			}
		}
		if p < 0 {
			return Scenario{}, fmt.Errorf("critpath: unknown phase %q in scenario %q", name, spec)
		}
		f, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || !(f >= 0 && f <= 1e6) { // also rejects NaN
			return Scenario{}, fmt.Errorf("critpath: bad factor %q for phase %s", factorStr, name)
		}
		sc.Scales = append(sc.Scales, Scale{Phase: p, Factor: f})
	}
	if len(sc.Scales) == 0 {
		return Scenario{}, fmt.Errorf("critpath: empty scenario %q", spec)
	}
	return sc, nil
}

// MustScenario is ParseScenario for known-good literals; it panics on
// error (programming mistake, not input).
func MustScenario(spec string) Scenario {
	sc, err := ParseScenario(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// Canonical returns the three counterfactuals every report answers: the
// NAND program twice as fast, zone resets free, and write-pointer
// serialization removed — the paper's "what does zone management really
// cost" questions (PAPERS.md: Doekemeijer et al.; Bagashvili & Papon).
func Canonical() []Scenario {
	return []Scenario{
		MustScenario("nand_program:0.5"),
		MustScenario("zone_reset:0"),
		MustScenario("wp_serial:0"),
	}
}

// PredictOpts tunes the replay model.
type PredictOpts struct {
	// ErasesAreResets marks stacks where every erase is a zone reset
	// (ZNS/host-FTL): a zone_reset scaling then also scales erase-bound
	// waits and erase constituents inside composites, matching the ground
	// truth of scaling the erase timing parameter itself.
	ErasesAreResets bool
	// PerTenant adds per-tenant predictions for tenants with samples.
	PerTenant bool
}

// Prediction is the predicted latency change for one op kind (and
// optionally one tenant) under a scenario. Base values summarize the
// replayed sample at factor 1; the ratios are the engine's prediction
// proper — apply them to exactly measured base metrics to get predicted
// values with the sampling bias cancelled.
type Prediction struct {
	Scenario string  `json:"scenario"`
	Op       string  `json:"op"`
	Tenant   int     `json:"tenant"` // -1 = all tenants
	Count    int     `json:"count"`
	BaseMean float64 `json:"base_mean_us"`
	BaseP99  float64 `json:"base_p99_us"`
	BaseP999 float64 `json:"base_p999_us"`
	Mean     float64 `json:"mean_us"`
	P99      float64 `json:"p99_us"`
	P999     float64 `json:"p999_us"`
	// Ratios are predicted/base (1 = no change); guard: 1 when the base
	// metric is 0.
	MeanRatio float64 `json:"mean_ratio"`
	P99Ratio  float64 `json:"p99_ratio"`
	P999Ratio float64 `json:"p999_ratio"`
}

// Replay computes one recorded path's counterfactual latency (in ns, as a
// float) under sc:
//
//   - direct phases scale by their own factor;
//   - wait phases scale by their own factor times the factor of the
//     service phase they queued behind (a wait behind a program shrinks
//     when programs speed up);
//   - composite phases scale by their own factor times the blend of their
//     recorded composition's factors (a GC stall shrinks in proportion to
//     how much of the work hidden under it got cheaper).
func Replay(rec *PathRec, sc Scenario, opts PredictOpts) float64 {
	total := 0.0
	for p := 0; p < telemetry.NumPhases; p++ {
		t := rec.Path[p]
		if t == 0 {
			continue
		}
		f := sc.Factor(telemetry.Phase(p))
		switch {
		case telemetry.WaitIdx(telemetry.Phase(p)) >= 0:
			wi := telemetry.WaitIdx(telemetry.Phase(p))
			rem := t
			for b := 0; b < telemetry.NumBinds; b++ {
				w := rec.WaitBy[wi][b]
				if w == 0 {
					continue
				}
				rem -= w
				total += float64(w) * f * bindFactor(sc, b, opts)
			}
			total += float64(rem) * f
		case telemetry.CompIdx(telemetry.Phase(p)) >= 0:
			total += float64(t) * f * blend(&rec.Comp[telemetry.CompIdx(telemetry.Phase(p))], sc, opts)
		default:
			total += float64(t) * f
		}
	}
	return total
}

// bindFactor is the scenario's multiplier for service-bind slot b.
func bindFactor(sc Scenario, b int, opts PredictOpts) float64 {
	p := telemetry.BindPhase(b)
	f := sc.Factor(p)
	if opts.ErasesAreResets && p == telemetry.PhaseNANDErase {
		f *= sc.Factor(telemetry.PhaseZoneReset)
	}
	return f
}

// blend is the composition-weighted scaling of one composite charge: the
// factor the hidden work's wall-clock shrinks by. Service constituents
// scale by their own factor; wait constituents additionally track the
// service blend (a wait inside a GC fan-out queues behind the fan-out's
// own reads and programs); a nested composite constituent (a zone reset
// hidden under a host reclaim stall) scales by its own factor times its
// erase cost. Only one level of composition is recorded, so constituents
// of a nested composite's own fan-out scale with that composite's factor,
// not individually — a documented source of prediction error.
func blend(comp *[telemetry.NumPhases]sim.Time, sc Scenario, opts PredictOpts) float64 {
	var snum, sden float64
	for b := 0; b < telemetry.NumBinds; b++ {
		c := comp[telemetry.BindPhase(b)]
		if c == 0 {
			continue
		}
		snum += float64(c) * bindFactor(sc, b, opts)
		sden += float64(c)
	}
	sblend := 1.0
	if sden > 0 {
		sblend = snum / sden
	}
	var num, den float64
	for q := 0; q < telemetry.NumPhases; q++ {
		c := comp[q]
		if c == 0 {
			continue
		}
		p := telemetry.Phase(q)
		fq := sc.Factor(p)
		switch {
		case telemetry.BindIdx(p) >= 0:
			fq = bindFactor(sc, telemetry.BindIdx(p), opts)
		case telemetry.WaitIdx(p) >= 0:
			fq *= sblend
		case p == telemetry.PhaseZoneReset:
			// A nested reset's cost is its erases. bindFactor already
			// folds the zone_reset factor into erases when
			// ErasesAreResets, so using it directly avoids applying
			// f(zone_reset) twice; otherwise both factors apply.
			fq = bindFactor(sc, telemetry.BindErase, opts)
			if !opts.ErasesAreResets {
				fq = sc.Factor(p) * sc.Factor(telemetry.PhaseNANDErase)
			}
		}
		num += float64(c) * fq
		den += float64(c)
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// Predict replays every sampled path under sc and summarizes the predicted
// distribution per op kind (Tenant -1), plus per tenant when opts.PerTenant
// is set. Results are deterministic: fixed iteration order, exact
// nearest-rank percentiles over sorted copies.
func (s *Snapshot) Predict(sc Scenario, opts PredictOpts) []Prediction {
	var out []Prediction
	for k := 0; k < telemetry.NumOps; k++ {
		if p, ok := s.predictGroup(sc, opts, telemetry.OpKind(k), -1); ok {
			out = append(out, p)
		}
	}
	if opts.PerTenant {
		for t := 0; t < telemetry.MaxTenants; t++ {
			for k := 0; k < telemetry.NumOps; k++ {
				if s.Tenants[t].Count[k] == 0 {
					continue
				}
				if p, ok := s.predictGroup(sc, opts, telemetry.OpKind(k), telemetry.TenantID(t)); ok {
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// predictGroup replays the sampled paths of one (op, tenant) group.
// tenant -1 selects all tenants.
func (s *Snapshot) predictGroup(sc Scenario, opts PredictOpts, op telemetry.OpKind, tenant telemetry.TenantID) (Prediction, bool) {
	var base, pred []float64
	for i := range s.Paths {
		rec := &s.Paths[i]
		if rec.Op != op || (tenant >= 0 && rec.Tenant != tenant) {
			continue
		}
		base = append(base, float64(rec.Total))
		pred = append(pred, Replay(rec, sc, opts))
	}
	if len(base) == 0 {
		return Prediction{}, false
	}
	p := Prediction{
		Scenario: sc.Name,
		Op:       op.String(),
		Tenant:   int(tenant),
		Count:    len(base),
		BaseMean: meanUs(base),
		BaseP99:  pctUs(base, 99),
		BaseP999: pctUs(base, 99.9),
		Mean:     meanUs(pred),
		P99:      pctUs(pred, 99),
		P999:     pctUs(pred, 99.9),
	}
	p.MeanRatio = ratio(p.Mean, p.BaseMean)
	p.P99Ratio = ratio(p.P99, p.BaseP99)
	p.P999Ratio = ratio(p.P999, p.BaseP999)
	return p, true
}

func ratio(pred, base float64) float64 {
	if base <= 0 {
		return 1
	}
	return pred / base
}

func meanUs(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v)) / 1e3
}

// pctUs is the exact nearest-rank percentile of v, in microseconds. It
// sorts a copy; v itself is left in recording order.
func pctUs(v []float64, q float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	idx := int(float64(len(sorted))*q/100+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx] / 1e3
}
