package telemetry

import (
	"blockhead/internal/sim"
)

// SLO is one per-tenant objective over the window ring: a tail-latency
// bound (Pct-th percentile at most LatencyMax), a throughput floor
// (MinRate ops/sec), or both. A window violates the SLO if it misses
// either bound; the objective holds overall while the violating-window
// fraction stays within Budget (the error budget, so
// burn rate = violated fraction / Budget, and burn > 1 means FAIL).
type SLO struct {
	Tenant TenantID
	Op     OpKind
	// Pct is the latency percentile under test; 0 selects 99.
	Pct float64
	// LatencyMax bounds the Pct-th percentile latency; 0 disables the
	// latency objective.
	LatencyMax sim.Time
	// MinRate is the per-window throughput floor in ops per virtual
	// second; 0 disables the throughput objective.
	MinRate float64
	// Budget is the tolerated violating-window fraction; 0 selects 0.05.
	Budget float64
}

// SLOResult is one objective's verdict over the currently retained
// windows.
type SLOResult struct {
	SLO      SLO
	Windows  int     // windows evaluated
	Violated int     // windows that missed an objective
	BurnRate float64 // violated fraction / budget; > 1 means the SLO failed
	// WorstUs is the worst per-window Pct-th percentile seen (µs);
	// WorstRate is the lowest per-window rate seen (ops/s, 0 when no
	// throughput objective or no windows).
	WorstUs   float64
	WorstRate float64
	OK        bool
}

// SLOEngine evaluates objectives against a WindowSet. The nil *SLOEngine
// is a valid no-op on every method (telemetry off), matching the sink
// contract.
type SLOEngine struct {
	wins       *WindowSet
	objectives []SLO
}

// NewSLOEngine returns an engine reading from w.
func NewSLOEngine(w *WindowSet) *SLOEngine { return &SLOEngine{wins: w} }

// Add registers one objective. Zero Pct and Budget take their defaults.
func (e *SLOEngine) Add(o SLO) {
	if e == nil {
		return
	}
	if o.Pct <= 0 {
		o.Pct = 99
	}
	if o.Budget <= 0 {
		o.Budget = 0.05
	}
	o.Tenant = clampTenant(o.Tenant)
	e.objectives = append(e.objectives, o)
}

// Evaluate renders a window-by-window verdict for every objective, in
// registration order. Only windows the tenant actually touched exist in
// the ring; a throughput objective therefore judges the tenant's active
// windows (a tenant that went fully idle parks its ring, it does not
// accrue empty violating windows).
func (e *SLOEngine) Evaluate() []SLOResult {
	if e == nil {
		return nil
	}
	out := make([]SLOResult, 0, len(e.objectives))
	for _, o := range e.objectives {
		r := SLOResult{SLO: o}
		wins := e.wins.Snapshot(o.Tenant)
		width := e.wins.Width()
		secs := 0.0
		if width > 0 {
			secs = float64(width) / float64(sim.Second)
		}
		worstRate := -1.0
		for _, win := range wins {
			op := win.Ops[o.Op]
			if op.Count == 0 && o.MinRate <= 0 {
				continue // no samples and no throughput bound: nothing to judge
			}
			r.Windows++
			bad := false
			if o.LatencyMax > 0 && op.Count > 0 {
				p := op.Hist.Percentile(o.Pct)
				if us := p.Micros(); us > r.WorstUs {
					r.WorstUs = us
				}
				if p > o.LatencyMax {
					bad = true
				}
			}
			if o.MinRate > 0 && secs > 0 {
				rate := float64(op.Count) / secs
				if worstRate < 0 || rate < worstRate {
					worstRate = rate
				}
				if rate < o.MinRate {
					bad = true
				}
			}
			if bad {
				r.Violated++
			}
		}
		if worstRate >= 0 {
			r.WorstRate = worstRate
		}
		if r.Windows > 0 {
			r.BurnRate = float64(r.Violated) / float64(r.Windows) / o.Budget
		}
		r.OK = r.BurnRate <= 1
		out = append(out, r)
	}
	return out
}
