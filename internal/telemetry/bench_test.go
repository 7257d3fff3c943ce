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
		p  *Probe
		a  *AttrSink
		fl *Flight
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
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
		if p.Flight() != nil || p.Attribution() != nil {
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

// The enabled path for comparison: one attributed IO and two flight
// records on a live probe. The sink's buffers and the flight ring are
// preallocated, so the armed path is allocation-free too.
func BenchmarkProbeEnabled(b *testing.B) {
	p := NewProbe()
	a, fl := p.Attr, p.FlightRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		armedIO(a, fl, sim.Time(i))
	}
}

// armedIO drives one measured IO through an armed sink and recorder: the
// charge, blame, bracket and record calls the device layers make.
func armedIO(a *AttrSink, fl *Flight, at sim.Time) {
	a.BeginTenant(OpRead, 2, at)
	a.ChargeBlamed(PhaseLUNWait, 10*sim.Microsecond, 3)
	a.Charge(PhaseNANDRead, 40*sim.Microsecond)
	a.Suspend()
	a.Resume()
	a.PushWorker(1)
	_ = a.Worker()
	a.PopWorker()
	a.End(at + 50*sim.Microsecond)
	fl.Record(at, FlightTransition, 3, "empty->open", 0)
	fl.Record(at, FlightErase, 7, "", 3)
}

// TestDisabledPathZeroAllocs pins the benchmark's claim in a normal test
// run, so `go test` alone catches a regression.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var (
		a  *AttrSink
		fl *Flight
		p  *Probe
		w  *WindowSet
		e  *SLOEngine
	)
	allocs := testing.AllocsPerRun(1000, func() {
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
		_ = p.Attribution()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f allocs/op, want 0", allocs)
	}
	armed := NewProbe()
	var at sim.Time
	armedIO(armed.Attr, armed.FlightRec, at) // first End sizes the sink's folds
	allocs = testing.AllocsPerRun(1000, func() {
		at += sim.Millisecond
		armedIO(armed.Attr, armed.FlightRec, at)
	})
	if allocs != 0 {
		t.Fatalf("armed sink and recorder allocate %.1f allocs/op, want 0", allocs)
	}
}
