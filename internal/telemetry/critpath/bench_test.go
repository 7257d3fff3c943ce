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
// the IOs, where testing.AllocsPerRun would round a rare one down to 0. The
// wide case samples paths that do not pack (a GC stall of 2^32 ns), never
// more at once than the side list's preallocated SampleCap/64 entries,
// through several decimations.
func TestEnabledRecorderZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name     string
		opts     Options
		ios      int
		wideEach int // every wideEach'th IO stalls 2^32 ns; 0 for none
	}{
		{"packed", Options{SampleCap: 64}, 2000, 0},
		{"wide", Options{SampleCap: 1024}, 5000, 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			sink := telemetry.NewAttrSink()
			rec := Attach(sink, c.opts)
			io := func(i int) {
				stall := 50 * sim.Microsecond
				if c.wideEach > 0 && i%c.wideEach == 0 {
					stall = 1 << 32
				}
				at := sim.Time(i) * sim.Microsecond
				sink.BeginTenant(telemetry.OpWrite, telemetry.TenantID(i%3), at)
				sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 10*sim.Microsecond, 2, telemetry.PhaseNANDProgram)
				sink.Charge(telemetry.PhaseNANDProgram, 700*sim.Microsecond)
				sink.Suspend()
				sink.Charge(telemetry.PhaseNANDRead, 60*sim.Microsecond)
				sink.Resume()
				sink.Charge(telemetry.PhaseGCStall, stall)
				sink.End(at + 710*sim.Microsecond + stall)
			}
			io(0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 1; i <= c.ios; i++ {
				io(i)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d recorded IOs allocated %d times, want 0", c.ios, n)
			}
			if v := sink.Violations(); v != 0 {
				t.Fatalf("recorded IO broke the attribution contract %d times", v)
			}
			if c.wideEach > 0 && (len(rec.side) == 0 || rec.stride == 1) {
				t.Fatalf("%d wide paths held at stride %d: the side list or decimation goes untested", len(rec.side), rec.stride)
			}
		})
	}
}

// TestRecorderBytesPerPath pins the reservoir's footprint: a default
// recorder filled with mixed_rw-shaped paths (a read behind a program, a
// write behind the write pointer, each 3 or 4 cells) allocates at most 96 B
// per retained path, the packed entry and its share of the side list.
// Unpacked PathRecs cost 472 B each.
func TestRecorderBytesPerPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := telemetry.NewAttrSink()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := Attach(sink, Options{})
	for i := 0; i < DefaultSampleCap; i++ {
		at := sim.Time(i) * sim.Millisecond
		if i%3 == 0 {
			sink.BeginTenant(telemetry.OpWrite, 0, at)
			sink.ChargeWaitBlamed(telemetry.PhaseWPSerial, 700*sim.Microsecond, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
			sink.Charge(telemetry.PhaseXfer, 3*sim.Microsecond)
			sink.Charge(telemetry.PhaseNANDProgram, 700*sim.Microsecond)
			sink.End(at + 1403*sim.Microsecond)
		} else {
			sink.BeginTenant(telemetry.OpRead, 0, at)
			sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 200*sim.Microsecond, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
			sink.Charge(telemetry.PhaseNANDRead, 60*sim.Microsecond)
			sink.Charge(telemetry.PhaseXfer, 3*sim.Microsecond)
			sink.End(at + 263*sim.Microsecond)
		}
	}
	runtime.ReadMemStats(&after)
	n := len(rec.Snapshot().Paths)
	if n != DefaultSampleCap {
		t.Fatalf("reservoir holds %d paths, want %d", n, DefaultSampleCap)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); per > 96 {
		t.Fatalf("%.1f B allocated per retained path, want <= 96", per)
	}
}
