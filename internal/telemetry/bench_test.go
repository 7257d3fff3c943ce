package telemetry

import (
	"testing"

	"blockhead/internal/sim"
)

// The package's core contract: with no probe attached, every instrument is
// a nil handle and the hot path must not allocate. This is what lets the
// device models call telemetry unconditionally on every simulated I/O.
func BenchmarkProbeDisabled(b *testing.B) {
	var (
		c  *Counter
		h  *Hist
		tr *Tracer
		r  *Registry
		p  *Probe
		a  *AttrSink
		fl *Flight
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		c.Inc()
		c.Add(4)
		h.Observe(at)
		tr.Span(ProcFlashLUN, 3, "flash", "read", at, at+40*sim.Microsecond)
		tr.Instant(ProcZone, 9, "zone", "->open", at)
		_ = r.Counter("bench/ops")
		a.BeginTenant(OpRead, 0, at)
		a.Charge(PhaseNANDRead, 40*sim.Microsecond)
		a.Suspend()
		a.Resume()
		a.End(at + 40*sim.Microsecond)
		a.BeginTenant(OpRead, 2, at)
		a.ChargeBlamed(PhaseLUNWait, 10*sim.Microsecond, 3)
		a.PushWorker(1)
		_ = a.Worker()
		a.PopWorker()
		a.End(at + 50*sim.Microsecond)
		fl.Record(at, FlightTransition, 3, "empty->open", 0)
		fl.Violation(at, FlightAuditViolation, 3, "illegal", 0)
		if p.Flight() != nil || p.Heat() != nil {
			b.Fatal("nil probe must resolve nil handles")
		}
	}
}

// The windowed-SLO layer follows the same contract: a nil WindowSet and a
// nil SLOEngine are valid no-ops, so stacks that never configure SLOs pay
// nothing per IO.
func BenchmarkProbeDisabledSLO(b *testing.B) {
	var (
		w *WindowSet
		e *SLOEngine
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		w.Observe(2, OpRead, at, 40*sim.Microsecond)
		_ = w.Width()
		e.Add(SLO{Tenant: 2, Op: OpRead})
		if e.Evaluate() != nil {
			b.Fatal("nil engine must evaluate to nil")
		}
	}
}

// The enabled WindowSet path: Observe into the preallocated ring is
// allocation-free too, so windowed tail tracking can stay on for every
// tenant-tagged IO.
func BenchmarkWindowObserveEnabled(b *testing.B) {
	w := NewWindowSet(WindowCfg{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Microsecond
		w.Observe(2, OpRead, at, 40*sim.Microsecond)
	}
}

// The enabled path for comparison: counters and spans on a live probe.
// Spans into a pre-sized ring are allocation-free too.
func BenchmarkProbeEnabled(b *testing.B) {
	p := NewProbe(Options{TraceEvents: 1 << 10})
	c := p.Metrics.Counter("bench/ops")
	h := p.Metrics.Histogram("bench/lat")
	tr := p.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		c.Inc()
		c.Add(4)
		h.Observe(at)
		tr.Span(ProcFlashLUN, 3, "flash", "read", at, at+40*sim.Microsecond)
		tr.Instant(ProcZone, 9, "zone", "->open", at)
	}
}

// TestDisabledPathZeroAllocs pins the benchmark's claim in a normal test
// run, so `go test` alone catches a regression.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var (
		c  *Counter
		tr *Tracer
		r  *Registry
		a  *AttrSink
		fl *Flight
		p  *Probe
		w  *WindowSet
		e  *SLOEngine
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		tr.Span(ProcFTL, 0, "ftl", "gc", 0, sim.Millisecond)
		tr.Instant(ProcZone, 1, "zone", "->open", 0)
		_ = r.Histogram("ftl/gc/stall")
		a.BeginTenant(OpWrite, 0, 0)
		a.Charge(PhaseGCStall, sim.Millisecond)
		a.End(sim.Millisecond)
		a.BeginTenant(OpRead, 1, 0)
		a.ChargeBlamed(PhaseZoneReset, sim.Millisecond, 3)
		a.PushWorker(2)
		_ = a.Worker()
		a.PopWorker()
		a.SetTenantName(1, "web")
		a.End(sim.Millisecond)
		w.Observe(1, OpRead, sim.Millisecond, sim.Microsecond)
		e.Add(SLO{Tenant: 1, Op: OpRead})
		_ = e.Evaluate()
		fl.Record(0, FlightErase, 7, "worn_out", 3)
		fl.Violation(0, FlightAttrViolation, -1, "attribution_invariant", 0)
		_ = p.Flight()
		_ = p.Heat()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f allocs/op, want 0", allocs)
	}
}
