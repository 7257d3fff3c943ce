package critpath

import (
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// The package inherits the telemetry layer's core contract: a nil
// *Recorder is a no-op on every method and the disabled path is 0
// allocs/op (make bench-telemetry pins it alongside the other probes).
func BenchmarkProbeDisabledCritPath(b *testing.B) {
	var (
		r *Recorder
		a *telemetry.AttrSink
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		r.BeginPath(telemetry.OpRead, 1, at)
		r.Segment(telemetry.PhaseNANDRead, 60*sim.Microsecond)
		r.WaitSegment(telemetry.PhaseLUNWait, sim.Microsecond, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
		r.Overlap(telemetry.PhaseNANDProgram, sim.Microsecond)
		r.Reassign(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, sim.Microsecond)
		r.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
		r.EndPath(at + 61*sim.Microsecond)
		r.DropPath()
		// The sink-side additions share the contract: nil sink, no-ops.
		a.ChargeWaitBlamed(telemetry.PhaseLUNWait, sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		_ = a.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
	}
}

// The enabled path must not allocate either: the reservoir is
// preallocated, so attaching a recorder costs no allocations per IO.
func BenchmarkRecorderEnabled(b *testing.B) {
	sink := telemetry.NewAttrSink()
	Attach(sink, Options{SampleCap: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Microsecond
		sink.BeginTenant(telemetry.OpWrite, 1, at)
		sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 10*sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		sink.Charge(telemetry.PhaseXfer, 3*sim.Microsecond)
		sink.Charge(telemetry.PhaseNANDProgram, 700*sim.Microsecond)
		sink.Suspend()
		sink.Charge(telemetry.PhaseNANDRead, 60*sim.Microsecond)
		sink.Resume()
		sink.Charge(telemetry.PhaseGCStall, 100*sim.Microsecond)
		sink.End(at + 813*sim.Microsecond)
	}
}

// TestDisabledCritPathZeroAllocs pins the benchmark's claim in a normal
// test run, extending the telemetry 0-allocs pin to the nil recorder.
func TestDisabledCritPathZeroAllocs(t *testing.T) {
	var (
		r *Recorder
		a *telemetry.AttrSink
	)
	allocs := testing.AllocsPerRun(1000, func() {
		r.BeginPath(telemetry.OpWrite, 0, 0)
		r.Segment(telemetry.PhaseNANDProgram, sim.Millisecond)
		r.WaitSegment(telemetry.PhaseLUNWait, sim.Microsecond, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
		r.Overlap(telemetry.PhaseNANDRead, sim.Microsecond)
		r.Reassign(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, sim.Microsecond)
		r.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
		r.EndPath(sim.Millisecond)
		r.DropPath()
		a.ChargeWaitBlamed(telemetry.PhaseLUNWait, sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		_ = a.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled critpath allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledRecorderZeroAllocs pins the enabled hot path too: recording a
// full IO into an attached recorder performs no allocations.
func TestEnabledRecorderZeroAllocs(t *testing.T) {
	sink := telemetry.NewAttrSink()
	Attach(sink, Options{SampleCap: 2048})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		at := sim.Time(i) * sim.Microsecond
		i++
		sink.BeginTenant(telemetry.OpWrite, 1, at)
		sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 10*sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		sink.Charge(telemetry.PhaseNANDProgram, 700*sim.Microsecond)
		sink.Suspend()
		sink.Charge(telemetry.PhaseNANDRead, 60*sim.Microsecond)
		sink.Resume()
		sink.Charge(telemetry.PhaseGCStall, 50*sim.Microsecond)
		sink.End(at + 760*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled critpath allocates %.1f allocs/op, want 0", allocs)
	}
}
