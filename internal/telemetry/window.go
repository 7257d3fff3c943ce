package telemetry

import (
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/stats"
)

// WindowCfg parameterizes a WindowSet.
type WindowCfg struct {
	// Width is the virtual-time span of one window; 0 selects 100ms.
	Width sim.Time
	// Keep is how many windows the per-tenant ring retains; 0 selects 8.
	Keep int
}

// DefaultWindowWidth is the window span a zero WindowCfg selects.
const DefaultWindowWidth = 100 * sim.Millisecond

// DefaultWindowKeep is the ring depth a zero WindowCfg selects.
const DefaultWindowKeep = 8

// WindowOp aggregates one op kind's latency samples within one window.
type WindowOp struct {
	Count uint64
	Sum   sim.Time
	Hist  stats.Histogram
}

// Window is one fixed virtual-time window of per-op latency histograms.
// Seq is the window's index (Start = Seq * width); Seq < 0 marks an
// unused ring slot.
type Window struct {
	Seq   int64
	Start sim.Time
	Ops   [NumOps]WindowOp
}

// WindowSet is a per-tenant ring of fixed virtual-time latency windows —
// the substrate for windowed tail tracking and SLO verdicts. Completed
// IOs land in the window their completion time falls in; a window that
// wraps past the ring depth evicts the oldest. All state is preallocated,
// so Observe never allocates, and the nil *WindowSet is a valid no-op on
// every method (the disabled path, pinned at 0 allocs/op).
type WindowSet struct {
	width sim.Time
	keep  int
	rings [MaxTenants][]Window
	late  uint64
}

// NewWindowSet returns an empty window ring per tenant.
func NewWindowSet(cfg WindowCfg) *WindowSet {
	if cfg.Width <= 0 {
		cfg.Width = DefaultWindowWidth
	}
	if cfg.Keep <= 0 {
		cfg.Keep = DefaultWindowKeep
	}
	w := &WindowSet{width: cfg.Width, keep: cfg.Keep}
	for t := range w.rings {
		ring := make([]Window, cfg.Keep)
		for i := range ring {
			ring[i].Seq = -1
		}
		w.rings[t] = ring
	}
	return w
}

// Width reports the window span (0 on a nil set).
func (w *WindowSet) Width() sim.Time {
	if w == nil {
		return 0
	}
	return w.width
}

// Observe lands one completed IO — tenant t's op finishing at done with
// end-to-end latency total — in its window. An observation older than the
// ring's horizon (done before the evicting window's start) is counted in
// late and dropped rather than corrupting a newer window.
func (w *WindowSet) Observe(t TenantID, op OpKind, done, total sim.Time) {
	if w == nil {
		return
	}
	t = clampTenant(t)
	if op < 0 || int(op) >= NumOps {
		return
	}
	seq := int64(done / w.width)
	slot := &w.rings[t][int(seq%int64(w.keep))]
	switch {
	case slot.Seq == seq:
		// Same window: accumulate.
	case slot.Seq < seq:
		*slot = Window{Seq: seq, Start: sim.Time(seq) * w.width}
	default:
		w.late++
		return
	}
	o := &slot.Ops[op]
	o.Count++
	o.Sum += total
	o.Hist.Add(total)
}

// Snapshot returns tenant t's retained windows in ascending Seq order
// (copy; allocates — a dump-time call, not a hot-path one). Nil on a nil
// set or out-of-range tenant.
func (w *WindowSet) Snapshot(t TenantID) []Window {
	if w == nil {
		return nil
	}
	if t < 0 || t >= MaxTenants {
		return nil
	}
	out := make([]Window, 0, w.keep)
	for _, win := range w.rings[t] {
		if win.Seq >= 0 {
			out = append(out, win)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
