package exemplar

import (
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// record drives one complete measured IO through an attached sink with a
// single known-duration phase, so its end-to-end latency is exact by
// construction.
func record(sink *telemetry.AttrSink, tenant telemetry.TenantID, us int, flag uint8) {
	d := sim.Time(us) * sim.Microsecond
	sink.BeginTenant(telemetry.OpRead, tenant, 0)
	sink.Charge(telemetry.PhaseNANDRead, d)
	if flag != 0 {
		sink.FlagIO(flag)
	}
	sink.End(d)
}

// TestWorstKAdmission pins the reservoir policy: each tenant keeps its K
// highest-latency IOs, the snapshot orders them worst-first, and the
// least-worst retained exemplar is the one evicted when a slower IO
// arrives.
func TestWorstKAdmission(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 2, FlagCap: 4})
	for _, us := range []int{10, 50, 20, 40, 30} {
		record(sink, 0, us, 0)
	}
	s := res.Snapshot()
	if s.IOs != 5 || s.Captured() != 2 {
		t.Fatalf("ios=%d captured=%d, want 5 measured, 2 retained", s.IOs, s.Captured())
	}
	top := s.TopK(0)
	if len(top) != 2 || top[0].Total != 50*sim.Microsecond || top[1].Total != 40*sim.Microsecond {
		t.Fatalf("worst-2 = %v, want [50us 40us]", top)
	}
	if sum := top[0].Phases[telemetry.PhaseNANDRead]; sum != top[0].Total {
		t.Fatalf("phase timeline %v != end-to-end %v", sum, top[0].Total)
	}
}

// TestTieBreakPrefersEarlierIO pins the deterministic tie order: equal
// latencies rank by ascending sequence number, so reports and goldens
// cannot flap between equally slow IOs.
func TestTieBreakPrefersEarlierIO(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 2})
	for i := 0; i < 4; i++ {
		record(sink, 0, 25, 0) // seqs 1..4, all 25us
	}
	top := res.Snapshot().TopK(0)
	if len(top) != 2 || top[0].Seq != 1 || top[1].Seq != 2 {
		t.Fatalf("tied worst-2 seqs = %d,%d, want 1,2", top[0].Seq, top[1].Seq)
	}
}

// TestTenantsIsolated pins per-tenant reservoirs: one tenant's slow IOs
// cannot evict another tenant's worst-K.
func TestTenantsIsolated(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 1})
	record(sink, 0, 10, 0)
	record(sink, 1, 1000, 0)
	record(sink, 1, 2000, 0)
	s := res.Snapshot()
	if len(s.Tenants[0]) != 1 || s.Tenants[0][0].Total != 10*sim.Microsecond {
		t.Fatalf("tenant 0 lost its exemplar to tenant 1: %v", s.Tenants[0])
	}
	if len(s.Tenants[1]) != 1 || s.Tenants[1][0].Total != 2000*sim.Microsecond {
		t.Fatalf("tenant 1 worst = %v, want 2000us", s.Tenants[1])
	}
}

// TestFlaggedRingAlwaysKeeps pins the always-keep ring: flagged IOs are
// retained regardless of latency, FlagSeen counts every flagged IO even
// after the ring wraps, and the ring keeps the newest entries.
func TestFlaggedRingAlwaysKeeps(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 1, FlagCap: 2})
	record(sink, 0, 9999, 0)                         // seq 1: slowest, unflagged
	record(sink, 0, 1, telemetry.FlagFaultRetry)     // seq 2: fast but flagged
	record(sink, 0, 2, telemetry.FlagAuditViolation) // seq 3
	record(sink, 0, 3, telemetry.FlagAuditViolation) // seq 4: wraps the ring
	s := res.Snapshot()
	if s.FlagSeen != 3 {
		t.Fatalf("FlagSeen = %d, want 3", s.FlagSeen)
	}
	if len(s.Flagged) != 2 || s.Flagged[0].Seq != 3 || s.Flagged[1].Seq != 4 {
		t.Fatalf("flagged ring = %+v, want seqs 3,4 (oldest overwritten)", s.Flagged)
	}
	if top := s.TopK(0); len(top) != 1 || top[0].Seq != 1 {
		t.Fatalf("worst-K = %+v, want only seq 1", top)
	}
}

// TestDrainResetsWindow pins the per-stack windowing contract: Drain
// returns everything since the previous Drain and resets the reservoir.
func TestDrainResetsWindow(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 2})
	record(sink, 0, 100, telemetry.FlagFaultRetry)
	first := res.Drain()
	if first.IOs != 1 || first.Captured() != 1 || len(first.Flagged) != 1 {
		t.Fatalf("first window = %+v, want 1 IO, 1 retained, 1 flagged", first)
	}
	if s := res.Snapshot(); s.IOs != 0 || s.Captured() != 0 || len(s.Flagged) != 0 {
		t.Fatalf("reservoir not reset by Drain: %+v", s)
	}
	record(sink, 0, 7, 0)
	second := res.Drain()
	if second.IOs != 1 || second.TopK(0)[0].Total != 7*sim.Microsecond {
		t.Fatalf("second window = %+v, want just the 7us IO", second)
	}
}

// TestDumpPhaseSumsExact pins the invariant every exemplar carries into the
// reports and the bench JSON: its phase timeline sums exactly to its total.
func TestDumpPhaseSumsExact(t *testing.T) {
	sink := telemetry.NewAttrSink()
	res := Attach(sink, Options{K: 4})
	sink.BeginTenant(telemetry.OpWrite, 1, 0)
	sink.Charge(telemetry.PhaseChanWait, 3*sim.Microsecond)
	sink.Charge(telemetry.PhaseXfer, 7*sim.Microsecond)
	sink.Charge(telemetry.PhaseNANDProgram, 690*sim.Microsecond)
	sink.End(700 * sim.Microsecond)
	top := res.Snapshot().TopK(0)
	if len(top) != 1 {
		t.Fatalf("captured %d exemplars, want 1", len(top))
	}
	var sum sim.Time
	for _, d := range top[0].Phases {
		sum += d
	}
	if sum != top[0].Total {
		t.Fatalf("phases sum to %v, total is %v", sum, top[0].Total)
	}
}
