package exemplar

import (
	"testing"

	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// The package inherits the telemetry layer's core contract: a nil
// *Reservoir and a nil *Narrator are no-ops on every method, and the
// disabled path is 0 allocs/op (make bench-telemetry pins it alongside
// the other probes).
func BenchmarkProbeDisabledExemplar(b *testing.B) {
	var (
		r   *Reservoir
		n   *Narrator
		a   *telemetry.AttrSink
		rec telemetry.Record
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i)
		r.Fold(&rec)
		r.SetSnap(nil)
		n.Fold(&rec)
		n.Attach(a)
		n.Arm("stack", critpath.PredictOpts{}, nil, nil)
		// The sink-side flag bit shares the contract: nil sink, no-op.
		a.FlagIO(telemetry.FlagFaultRetry)
	}
}

// TestDisabledExemplarZeroAllocs pins the benchmark's claim in a normal
// test run, extending the telemetry 0-allocs pin to the nil reservoir and
// the nil narrator.
func TestDisabledExemplarZeroAllocs(t *testing.T) {
	var (
		r   *Reservoir
		n   *Narrator
		a   *telemetry.AttrSink
		rec telemetry.Record
	)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Fold(&rec)
		r.SetSnap(nil)
		n.Fold(&rec)
		n.Attach(a)
		n.Arm("stack", critpath.PredictOpts{}, nil, nil)
		a.FlagIO(telemetry.FlagAuditViolation)
	})
	if allocs != 0 {
		t.Fatalf("disabled exemplar capture allocates %.1f allocs/op, want 0", allocs)
	}
}
