package critpath

import (
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

const us = sim.Microsecond

// TestRecorderThroughSink drives a recorder through a real AttrSink the way
// the device models do and checks every recorded quantity: exact path sum,
// wait binds, composite composition, off-path totals.
func TestRecorderThroughSink(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{SampleCap: 16})
	if FromSink(sink) != rec {
		t.Fatal("FromSink did not return the attached recorder")
	}

	// A write: queue, wait behind a program, transfer, program, then a
	// composite GC stall hiding a read+program fan-out.
	sink.BeginTenant(telemetry.OpWrite, 2, 0)
	sink.Charge(telemetry.PhaseHostQueue, 5*us)
	sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 100*us, 3, telemetry.PhaseNANDProgram)
	sink.Charge(telemetry.PhaseXfer, 3*us)
	sink.Charge(telemetry.PhaseNANDProgram, 700*us)
	sink.Suspend()
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.Charge(telemetry.PhaseNANDProgram, 700*us)
	sink.Resume()
	sink.ChargeBlamed(telemetry.PhaseGCStall, 400*us, 1)
	sink.End(1208 * us)

	if v := rec.Snapshot().Violations; v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	if rec.Snapshot().IOs != 1 {
		t.Fatalf("ios = %d, want 1", rec.Snapshot().IOs)
	}
	snap := rec.Snapshot()
	a := snap.Ops[telemetry.OpWrite]
	if a.Count != 1 || a.TotalSum != 1208*us {
		t.Fatalf("write agg count=%d total=%v", a.Count, a.TotalSum)
	}
	var pathSum sim.Time
	for p := 0; p < telemetry.NumPhases; p++ {
		pathSum += a.Path[p]
	}
	if pathSum != 1208*us {
		t.Fatalf("path sum %v != total %v", pathSum, 1208*us)
	}
	if got := a.WaitBy[telemetry.WaitLUN][telemetry.BindProgram]; got != 100*us {
		t.Fatalf("lun_wait program-bound = %v, want %v", got, 100*us)
	}
	if got := a.Off[telemetry.PhaseNANDRead]; got != 60*us {
		t.Fatalf("off-path nand_read = %v, want %v", got, 60*us)
	}
	if got := a.Off[telemetry.PhaseNANDProgram]; got != 700*us {
		t.Fatalf("off-path nand_program = %v, want %v", got, 700*us)
	}
	if len(snap.Paths) != 1 {
		t.Fatalf("sampled %d paths, want 1", len(snap.Paths))
	}
	pr := snap.Paths[0]
	if pr.Op != telemetry.OpWrite || pr.Tenant != 2 || pr.Total != 1208*us {
		t.Fatalf("sampled path = %+v", pr)
	}
	if got := pr.Comp[telemetry.CompGCStall][telemetry.PhaseNANDProgram]; got != 700*us {
		t.Fatalf("gc_stall composition program = %v, want %v", got, 700*us)
	}
	if got := pr.Comp[telemetry.CompGCStall][telemetry.PhaseNANDRead]; got != 60*us {
		t.Fatalf("gc_stall composition read = %v, want %v", got, 60*us)
	}
}

// TestRecorderDeepSuspension checks that charges at suspension depth >= 2
// are not recorded (their wall-clock is represented by the enclosing
// composite one level up), while the depth-1 composite charge is.
func TestRecorderDeepSuspension(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{})
	sink.BeginTenant(telemetry.OpWrite, 0, 0)
	sink.Suspend() // depth 1: host reclaim
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.Suspend() // depth 2: nested stripe reset
	sink.Charge(telemetry.PhaseNANDErase, 4200*us)
	sink.Resume()
	sink.Charge(telemetry.PhaseZoneReset, 4200*us) // depth-1 wall of the nested reset
	sink.Resume()
	sink.Charge(telemetry.PhaseGCStall, 5000*us)
	sink.End(5000 * us)

	snap := rec.Snapshot()
	a := snap.Ops[telemetry.OpWrite]
	if got := a.Off[telemetry.PhaseNANDErase]; got != 0 {
		t.Fatalf("depth-2 erase recorded off-path: %v", got)
	}
	if got := a.Off[telemetry.PhaseZoneReset]; got != 4200*us {
		t.Fatalf("nested reset wall = %v, want %v", got, 4200*us)
	}
	pr := snap.Paths[0]
	if got := pr.Comp[telemetry.CompGCStall][telemetry.PhaseZoneReset]; got != 4200*us {
		t.Fatalf("gc_stall composition zone_reset = %v, want %v", got, 4200*us)
	}
	if rec.Snapshot().Violations != 0 {
		t.Fatalf("violations = %d", rec.Snapshot().Violations)
	}
}

// TestReassignMovesBinds mirrors the zns lun_wait -> wp_serial reclassify:
// the moved ticks keep their program bind under the new phase.
func TestReassignMovesBinds(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{})
	sink.BeginTenant(telemetry.OpWrite, 0, 0)
	sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 100*us, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
	sink.Charge(telemetry.PhaseNANDProgram, 700*us)
	sink.Reclassify(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, 80*us)
	sink.End(800 * us)

	snap := rec.Snapshot()
	a := snap.Ops[telemetry.OpWrite]
	if got := a.Path[telemetry.PhaseWPSerial]; got != 80*us {
		t.Fatalf("wp_serial path = %v, want %v", got, 80*us)
	}
	if got := a.WaitBy[telemetry.WaitWPSerial][telemetry.BindProgram]; got != 80*us {
		t.Fatalf("wp_serial program-bound = %v, want %v", got, 80*us)
	}
	if got := a.WaitBy[telemetry.WaitLUN][telemetry.BindProgram]; got != 20*us {
		t.Fatalf("lun_wait program-bound = %v, want %v", got, 20*us)
	}
	if rec.Snapshot().Violations != 0 {
		t.Fatalf("violations = %d", rec.Snapshot().Violations)
	}
}

// TestRefundKeepsInvariant mirrors the wp_serial early-ack: refunded ticks
// leave both the sink and the recorder summing exactly to the (earlier)
// host-visible completion.
func TestRefundKeepsInvariant(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{})
	sink.BeginTenant(telemetry.OpWrite, 1, 0)
	sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 100*us, 2, telemetry.PhaseNANDProgram)
	sink.Charge(telemetry.PhaseNANDProgram, 700*us)
	sink.Reclassify(telemetry.PhaseLUNWait, telemetry.PhaseWPSerial, 100*us)
	if got := sink.Refund(telemetry.PhaseWPSerial, 100*us); got != 100*us {
		t.Fatalf("refund = %v, want %v", got, 100*us)
	}
	sink.End(700 * us)

	if sink.Violations() != 0 {
		t.Fatalf("sink violations = %d", sink.Violations())
	}
	if rec.Snapshot().Violations != 0 {
		t.Fatalf("recorder violations = %d", rec.Snapshot().Violations)
	}
	snap := rec.Snapshot()
	a := snap.Ops[telemetry.OpWrite]
	if got := a.Path[telemetry.PhaseWPSerial]; got != 0 {
		t.Fatalf("wp_serial after refund = %v, want 0", got)
	}
	if got := a.WaitBy[telemetry.WaitWPSerial][telemetry.BindProgram]; got != 0 {
		t.Fatalf("wp_serial bind after refund = %v, want 0", got)
	}
}

// TestViolationCounted: a path that does not sum to end-to-end, and a
// begin over an open record, count as the sink checks them, but the
// completed record is still aggregated. Drain starts the count afresh.
func TestViolationCounted(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{})
	fired := 0
	sink.OnViolation = func(sim.Time) { fired++ }
	sink.BeginTenant(telemetry.OpRead, 0, 0)
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.End(100 * us) // 40us unaccounted
	if rec.Snapshot().Violations != 1 || fired != 1 {
		t.Fatalf("violations=%d fired=%d, want 1/1", rec.Snapshot().Violations, fired)
	}
	if rec.Snapshot().Ops[telemetry.OpRead].Count != 1 {
		t.Fatal("violating record was not aggregated")
	}
	sink.BeginTenant(telemetry.OpRead, 0, 0)
	sink.BeginTenant(telemetry.OpRead, 0, 0) // abandons the first
	sink.Drop()
	if got := rec.Drain().Violations; got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}
	if got := rec.Snapshot().Violations; got != 0 {
		t.Fatalf("violations after Drain = %d, want 0", got)
	}
}

// TestDecimationDeterministic fills a small reservoir far past capacity and
// checks the stride-doubling invariants: bounded size, evenly spaced
// retained sequence, identical across runs.
func TestDecimationDeterministic(t *testing.T) {
	run := func() Snapshot {
		sink := telemetry.NewAttrSink()
		rec := Attach(sink, Options{SampleCap: 16})
		for i := 0; i < 1000; i++ {
			at := sim.Time(i) * 1000 * us
			sink.BeginTenant(telemetry.OpRead, 0, at)
			sink.Charge(telemetry.PhaseNANDRead, sim.Time(i+1)*us)
			sink.End(at + sim.Time(i+1)*us)
		}
		return rec.Snapshot()
	}
	a, b := run(), run()
	if len(a.Paths) == 0 || len(a.Paths) > 16 {
		t.Fatalf("reservoir size %d, want 1..16", len(a.Paths))
	}
	if a.Stride != b.Stride || len(a.Paths) != len(b.Paths) {
		t.Fatalf("runs disagree: stride %d/%d, size %d/%d", a.Stride, b.Stride, len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if a.Paths[i] != b.Paths[i] {
			t.Fatalf("path %d differs between identical runs", i)
		}
		// Totals encode the IO index, so spacing is checkable: retained
		// records must be exactly stride apart.
		if i > 0 {
			gap := a.Paths[i].Total - a.Paths[i-1].Total
			if gap != sim.Time(a.Stride)*us {
				t.Fatalf("retained records %d apart at %d, want stride %d", gap/us, i, a.Stride)
			}
		}
	}
}

// TestDrainResets: Drain returns the accumulated state and leaves the
// recorder empty for the next experiment's section.
func TestDrainResets(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{SampleCap: 8})
	sink.BeginTenant(telemetry.OpRead, 0, 0)
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.End(60 * us)
	snap := DrainFromSink(sink)
	if snap.IOs != 1 || len(snap.Paths) != 1 {
		t.Fatalf("drained ios=%d sampled=%d", snap.IOs, len(snap.Paths))
	}
	after := rec.Snapshot()
	if after.IOs != 0 || len(after.Paths) != 0 || after.Stride != 1 {
		t.Fatalf("recorder not reset: %+v", after)
	}
}

// TestNilSafe: every method of the nil recorder and nil-sink helpers is a
// no-op.
func TestNilSafe(t *testing.T) {
	var r *Recorder
	r.Fold(&telemetry.Record{})
	if s := r.Snapshot(); s.IOs != 0 || s.Violations != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if s := r.Drain(); s.IOs != 0 {
		t.Fatal("nil drain not empty")
	}
	if Attach(nil, Options{}) != nil {
		t.Fatal("Attach(nil) must return nil")
	}
	if FromSink(nil) != nil {
		t.Fatal("FromSink(nil) must return nil")
	}
	if s := DrainFromSink(nil); s.IOs != 0 {
		t.Fatal("DrainFromSink(nil) not empty")
	}
}

// TestDumpShape sanity-checks the per-op decomposition and the bench
// summary on a small recording.
func TestDumpShape(t *testing.T) {
	sink := telemetry.NewAttrSink()
	rec := Attach(sink, Options{SampleCap: 8})
	sink.BeginTenant(telemetry.OpRead, 0, 0)
	sink.ChargeWaitBlamed(telemetry.PhaseLUNWait, 40*us, telemetry.SelfTenant, telemetry.PhaseNANDProgram)
	sink.Charge(telemetry.PhaseNANDRead, 60*us)
	sink.End(100 * us)
	snap := rec.Snapshot()
	ops := snap.Dump()
	if len(ops) != 1 || ops[0].Op != "read" || ops[0].Count != 1 {
		t.Fatalf("dump ops: %+v", ops)
	}
	var sawWait bool
	for _, p := range ops[0].Phases {
		if p.Name == "lun_wait" {
			sawWait = true
			if len(p.Binds) != 1 || p.Binds[0].Name != "nand_program" {
				t.Fatalf("lun_wait binds: %+v", p.Binds)
			}
		}
	}
	if !sawWait {
		t.Fatal("dump omitted lun_wait")
	}
	b := snap.Bench(PredictOpts{})
	if b.IOs != 1 || b.TopPhase != "nand_read" {
		t.Fatalf("bench summary: %+v", b)
	}
}
