package exemplar

import (
	"runtime"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

// armedIO drives one whole measured IO shaped like the device layers' feed:
// a queue wait, a LUN wait behind another tenant's program, a GC stall that
// hides a relocation fan-out (depth 1 and 2), a wp_serial relabel with an
// early-ack refund, and a flag. i varies the latency, tenant and flag so the
// reservoir's heaps fill and replace and the flagged ring wraps. Every
// fourth IO fails partway and is dropped.
func armedIO(sink *telemetry.AttrSink, i int) {
	const us = sim.Microsecond
	at := sim.Time(i) * 10 * us
	sink.BeginTenant(telemetry.OpWrite, telemetry.TenantID(i%3), at)
	sink.Charge(telemetry.PhaseHostQueue, 2*us)
	sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, sim.Time(10+i%50)*us, 2, telemetry.PhaseNANDProgram)
	sink.Charge(telemetry.PhaseXfer, 3*us)
	sink.Suspend()
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.Suspend()
	sink.Charge(telemetry.PhaseNANDErase, 3*us)
	sink.Resume()
	sink.Charge(telemetry.PhaseNANDProgram, 700*us)
	sink.Resume()
	sink.ChargeBlamed(telemetry.PhaseGCStall, 800*us, 1)
	sink.Reclassify(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, 5*us)
	sink.Refund(telemetry.PhaseWPSerial, 2*us)
	if i%7 == 0 {
		sink.FlagIO(telemetry.FlagAuditViolation)
	}
	if i%4 == 3 {
		sink.Drop()
		return
	}
	sink.End(at + sim.Time(813+i%50)*us)
}

// armedSinks are the fold sets an experiment arms: the critical-path
// recorder and the exemplar reservoir with a device snapshot (every
// attributed experiment), and the -explain narrator (tap and fold) on an IO
// the measured loop reaches.
var armedSinks = []struct {
	name string
	arm  func(sink *telemetry.AttrSink)
}{
	{"recorder+reservoir", func(sink *telemetry.AttrSink) {
		critpath.Attach(sink, critpath.Options{SampleCap: 64})
		Attach(sink, Options{K: 4, FlagCap: 2}).SetSnap(func(done sim.Time, s *DevSnap) { s.GCRuns = 1 })
	}},
	{"explain", func(sink *telemetry.AttrSink) {
		NewNarrator(1500).Attach(sink)
	}},
}

// TestArmedIOZeroAllocs pins the armed hot path: a measured IO from
// BeginTenant through every charge kind to End, with every fold attached,
// performs no allocations — admission, heap replacement, flagged-ring wrap,
// path decimation and the narrator's capture included.
func TestArmedIOZeroAllocs(t *testing.T) {
	for _, tc := range armedSinks {
		t.Run(tc.name, func(t *testing.T) { pinArmedZeroAllocs(t, tc.arm) })
	}
}

// TestEnabledReservoirZeroAllocs pins the reservoir folding on its own, with
// no recorder beside it: admission, heap replacement, flagged-ring wrap and
// the device snapshot perform no allocations.
func TestEnabledReservoirZeroAllocs(t *testing.T) {
	pinArmedZeroAllocs(t, func(sink *telemetry.AttrSink) {
		Attach(sink, Options{K: 4, FlagCap: 2}).SetSnap(func(done sim.Time, s *DevSnap) { s.GCRuns = 1 })
	})
}

// pinArmedZeroAllocs drives 2000 armed IOs through a sink armed by arm and
// fails on any allocation. It counts every allocation, where
// testing.AllocsPerRun would round a rare one (an admitted exemplar
// escaping, say) down to 0 per op.
func pinArmedZeroAllocs(t *testing.T, arm func(sink *telemetry.AttrSink)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := telemetry.NewAttrSink()
	arm(sink)
	armedIO(sink, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= 2000; i++ {
		armedIO(sink, i)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("2000 armed IOs allocated %d times, want 0", n)
	}
	if v := sink.Violations(); v != 0 {
		t.Fatalf("armed IO broke the attribution contract %d times", v)
	}
}

// BenchmarkArmedIO prices one whole record through every fold an
// experiment arms (the recorder and reservoir row of armedSinks).
func BenchmarkArmedIO(b *testing.B) {
	sink := telemetry.NewAttrSink()
	armedSinks[0].arm(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		armedIO(sink, i)
	}
}
