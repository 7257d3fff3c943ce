package exemplar

import (
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// The package inherits the telemetry layer's core contract: a nil
// *Reservoir and a nil *Narrator are no-ops on every method, and the
// disabled path is 0 allocs/op (make bench-telemetry pins it alongside
// the other probes).
func BenchmarkProbeDisabledExemplar(b *testing.B) {
	var (
		r *Reservoir
		n *Narrator
		a *telemetry.AttrSink
	)
	phases := [telemetry.NumPhases]sim.Time{}
	blame := [telemetry.MaxTenants]sim.Time{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		r.BeginExemplar(uint64(i), telemetry.OpRead, 1, at)
		r.EndExemplar(at+sim.Microsecond, &phases, &blame, 0)
		r.DropExemplar()
		r.SetSnap(nil)
		n.BeginExemplar(uint64(i), telemetry.OpRead, 1, at)
		n.EndExemplar(at+sim.Microsecond, &phases, &blame, 0)
		n.DropExemplar()
		n.Arm("stack", critpath.PredictOpts{}, nil, nil)
		// The sink-side flag bit shares the contract: nil sink, no-op.
		a.FlagIO(telemetry.FlagFaultRetry)
	}
}

// The enabled path must not allocate either: the per-tenant heaps and the
// flagged ring are preallocated, so capturing an exemplar — including a
// flagged one once the ring has wrapped — costs no allocations per IO.
func BenchmarkReservoirEnabled(b *testing.B) {
	sink := telemetry.NewAttrSink()
	critpath.Attach(sink, critpath.Options{SampleCap: 1024})
	res := Attach(sink, Options{K: 8, FlagCap: 8})
	res.SetSnap(func(done sim.Time, s *DevSnap) {
		s.Zoned = true
		s.ZoneCount[1] = 3
		s.BusyLUNs, s.TotalLUNs = 1, 4
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Microsecond
		sink.BeginTenant(telemetry.OpWrite, telemetry.TenantID(i%3), at)
		sink.Charge(telemetry.PhaseNANDProgram, sim.Time(700+i%100)*sim.Microsecond)
		if i%7 == 0 {
			sink.FlagIO(telemetry.FlagAuditViolation)
		}
		sink.End(at + sim.Time(700+i%100)*sim.Microsecond)
	}
}

// TestDisabledExemplarZeroAllocs pins the benchmark's claim in a normal
// test run, extending the telemetry 0-allocs pin to the nil reservoir and
// the nil narrator.
func TestDisabledExemplarZeroAllocs(t *testing.T) {
	var (
		r *Reservoir
		n *Narrator
		a *telemetry.AttrSink
	)
	phases := [telemetry.NumPhases]sim.Time{}
	blame := [telemetry.MaxTenants]sim.Time{}
	allocs := testing.AllocsPerRun(1000, func() {
		r.BeginExemplar(1, telemetry.OpWrite, 0, 0)
		r.EndExemplar(sim.Millisecond, &phases, &blame, 0)
		r.DropExemplar()
		r.SetSnap(nil)
		n.BeginExemplar(1, telemetry.OpWrite, 0, 0)
		n.EndExemplar(sim.Millisecond, &phases, &blame, 0)
		n.DropExemplar()
		n.Arm("stack", critpath.PredictOpts{}, nil, nil)
		a.FlagIO(telemetry.FlagAuditViolation)
	})
	if allocs != 0 {
		t.Fatalf("disabled exemplar capture allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledReservoirZeroAllocs pins the enabled hot path too: recording
// an IO into an attached reservoir — admission test, heap replacement,
// flagged-ring wrap, and device snapshot included — performs no
// allocations.
func TestEnabledReservoirZeroAllocs(t *testing.T) {
	sink := telemetry.NewAttrSink()
	critpath.Attach(sink, critpath.Options{SampleCap: 2048})
	res := Attach(sink, Options{K: 4, FlagCap: 2})
	res.SetSnap(func(done sim.Time, s *DevSnap) { s.GCRuns = 1 })
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		at := sim.Time(i) * sim.Microsecond
		i++
		sink.BeginTenant(telemetry.OpRead, telemetry.TenantID(i%2), at)
		sink.Charge(telemetry.PhaseNANDRead, sim.Time(60+i%40)*sim.Microsecond)
		if i%3 == 0 {
			sink.FlagIO(telemetry.FlagFaultRetry)
		}
		sink.End(at + sim.Time(60+i%40)*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled exemplar capture allocates %.1f allocs/op, want 0", allocs)
	}
}
