package telemetry

import (
	"math"
	"testing"

	"blockhead/internal/sim"
)

// fillWindow lands n reads for tenant t in window seq, each with the given
// latency (1ms windows).
func fillWindow(w *WindowSet, t TenantID, seq int64, n int, lat sim.Time) {
	for i := 0; i < n; i++ {
		done := sim.Time(seq)*sim.Millisecond + sim.Time(i+1)*sim.Microsecond
		w.Observe(t, OpRead, done, lat)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	w := NewWindowSet(WindowCfg{Width: sim.Millisecond, Keep: 8})
	fillWindow(w, 1, 0, 10, 100*sim.Microsecond)
	fillWindow(w, 1, 1, 10, 100*sim.Microsecond)
	fillWindow(w, 1, 2, 10, 2*sim.Millisecond) // the bad window

	eng := NewSLOEngine(w)
	eng.Add(SLO{Tenant: 1, Op: OpRead, LatencyMax: 200 * sim.Microsecond})
	if len(eng.objectives) != 1 {
		t.Fatalf("objectives = %d", len(eng.objectives))
	}
	res := eng.Evaluate()
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	r := res[0]
	if r.SLO.Pct != 99 || r.SLO.Budget != 0.05 {
		t.Fatalf("defaults not applied: %+v", r.SLO)
	}
	if r.Windows != 3 || r.Violated != 1 {
		t.Fatalf("windows=%d violated=%d, want 3/1", r.Windows, r.Violated)
	}
	wantBurn := (1.0 / 3.0) / 0.05
	if math.Abs(r.BurnRate-wantBurn) > 1e-9 || r.OK {
		t.Fatalf("burn=%v ok=%v, want %v/false", r.BurnRate, r.OK, wantBurn)
	}
	// The worst per-window percentile is the bad window's (log-bucket
	// upper edge of 2ms).
	if r.WorstUs < 2000 {
		t.Fatalf("worstUs = %v, want >= 2000", r.WorstUs)
	}
}

func TestSLOThroughputObjective(t *testing.T) {
	w := NewWindowSet(WindowCfg{Width: sim.Millisecond, Keep: 8})
	fillWindow(w, 1, 0, 10, 50*sim.Microsecond) // 10000 ops/s
	fillWindow(w, 1, 1, 2, 50*sim.Microsecond)  // 2000 ops/s: violates

	eng := NewSLOEngine(w)
	eng.Add(SLO{Tenant: 1, Op: OpRead, MinRate: 5000, Budget: 0.75})
	r := eng.Evaluate()[0]
	if r.Windows != 2 || r.Violated != 1 {
		t.Fatalf("windows=%d violated=%d, want 2/1", r.Windows, r.Violated)
	}
	if r.WorstRate != 2000 {
		t.Fatalf("worstRate = %v, want 2000", r.WorstRate)
	}
	if !r.OK { // 0.5 violated fraction inside a 0.75 budget
		t.Fatalf("burn=%v should be within budget", r.BurnRate)
	}
}

func TestSLOSkipsUntouchedWindows(t *testing.T) {
	w := NewWindowSet(WindowCfg{Width: sim.Millisecond, Keep: 8})
	fillWindow(w, 1, 0, 5, 50*sim.Microsecond)
	// Tenant 1 also wrote in window 3, so a read window 3 exists with
	// Count 0 — a latency-only objective must not judge it.
	w.Observe(1, OpWrite, 3*sim.Millisecond, 80*sim.Microsecond)

	eng := NewSLOEngine(w)
	eng.Add(SLO{Tenant: 1, Op: OpRead, LatencyMax: sim.Millisecond})
	if r := eng.Evaluate()[0]; r.Windows != 1 || r.Violated != 0 || !r.OK {
		t.Fatalf("latency-only: %+v", r)
	}
	// A throughput objective judges every active window: the read-less
	// window 3 is a rate violation.
	eng2 := NewSLOEngine(w)
	eng2.Add(SLO{Tenant: 1, Op: OpRead, MinRate: 1000})
	if r := eng2.Evaluate()[0]; r.Windows != 2 || r.Violated != 1 {
		t.Fatalf("throughput: %+v", r)
	}
}

func TestSLONil(t *testing.T) {
	var eng *SLOEngine
	eng.Add(SLO{Tenant: 1, Op: OpRead}) // must not panic
	if eng.Evaluate() != nil {
		t.Fatal("nil SLOEngine must be a zero no-op")
	}
	// An engine over a nil WindowSet evaluates to zero-window verdicts.
	live := NewSLOEngine(nil)
	live.Add(SLO{Tenant: 1, Op: OpRead, LatencyMax: sim.Millisecond})
	if r := live.Evaluate()[0]; r.Windows != 0 || !r.OK {
		t.Fatalf("nil-window evaluate: %+v", r)
	}
}
