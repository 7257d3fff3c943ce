package critpath

import (
	"runtime"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// The package inherits the telemetry layer's core contract: a nil
// *Recorder is a no-op on every method and the disabled path is 0
// allocs/op (make bench-telemetry pins it alongside the other probes).
func BenchmarkProbeDisabledCritPath(b *testing.B) {
	var (
		r   *Recorder
		a   *telemetry.AttrSink
		rec telemetry.Record
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Total = sim.Time(i)
		r.Fold(&rec)
		// The sink-side additions share the contract: nil sink, no-ops.
		a.ChargeWaitBlamed(telemetry.PhaseLUNWait, sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		_ = a.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
	}
}

// TestDisabledCritPathZeroAllocs pins the benchmark's claim in a normal
// test run, extending the telemetry 0-allocs pin to the nil recorder.
func TestDisabledCritPathZeroAllocs(t *testing.T) {
	var (
		r   *Recorder
		a   *telemetry.AttrSink
		rec telemetry.Record
	)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Fold(&rec)
		_ = r.Drain()
		a.ChargeWaitBlamed(telemetry.PhaseLUNWait, sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		_ = a.Refund(telemetry.PhaseWPSerial, sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled critpath allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledRecorderZeroAllocs pins the enabled hot path too: folding a
// full IO — a blamed wait, an off-path stall and a sampled path — into an
// attached recorder performs no allocations. It counts every allocation of
// 2000 IOs, where testing.AllocsPerRun would round a rare one down to 0.
func TestEnabledRecorderZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := telemetry.NewAttrSink()
	Attach(sink, Options{SampleCap: 64})
	io := func(i int) {
		at := sim.Time(i) * sim.Microsecond
		sink.BeginTenant(telemetry.OpWrite, telemetry.TenantID(i%3), at)
		sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 10*sim.Microsecond, 2, telemetry.PhaseNANDProgram)
		sink.Charge(telemetry.PhaseNANDProgram, 700*sim.Microsecond)
		sink.Suspend()
		sink.Charge(telemetry.PhaseNANDRead, 60*sim.Microsecond)
		sink.Resume()
		sink.Charge(telemetry.PhaseGCStall, 50*sim.Microsecond)
		sink.End(at + 760*sim.Microsecond)
	}
	io(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= 2000; i++ {
		io(i)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("2000 recorded IOs allocated %d times, want 0", n)
	}
	if v := sink.Violations(); v != 0 {
		t.Fatalf("recorded IO broke the attribution contract %d times", v)
	}
}
