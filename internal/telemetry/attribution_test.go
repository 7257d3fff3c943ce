package telemetry

import (
	"encoding/json"
	"testing"

	"blockhead/internal/sim"
)

func TestAttrSinkNilSafe(t *testing.T) {
	var s *AttrSink
	s.BeginTenant(OpWrite, 0, 0)
	s.Charge(PhaseGCStall, sim.Millisecond)
	s.Reclassify(PhaseLUNWait, PhaseWPSerial, sim.Microsecond)
	s.Suspend()
	s.Resume()
	s.End(sim.Second)
	s.Drop()
	if s.Violations() != 0 || s.Value(PhaseGCStall) != 0 {
		t.Fatal("nil sink must report zero state")
	}
	if got := s.Snapshot(); got.Ops[OpWrite].Count != 0 {
		t.Fatal("nil sink snapshot must be empty")
	}
	if d := s.Snapshot().Dump(); len(d.Ops) != 0 {
		t.Fatal("nil sink dump must be empty")
	}
}

// foldFunc adapts a function to a Fold.
type foldFunc func(r *Record)

func (f foldFunc) Fold(r *Record) { f(r) }

func TestAttrSumInvariant(t *testing.T) {
	s := NewAttrSink()
	var seen int
	s.Folds = []Fold{foldFunc(func(r *Record) {
		seen++
		var sum sim.Time
		for _, d := range r.Phases {
			sum += d
		}
		if sum != r.Total {
			t.Fatalf("phases sum %v != total %v", sum, r.Total)
		}
	})}
	s.BeginTenant(OpWrite, 0, 100)
	s.Charge(PhaseGCStall, 40)
	s.Charge(PhaseNANDProgram, 60)
	s.End(200)
	if seen != 1 {
		t.Fatalf("the fold saw %d records, want 1", seen)
	}
	if v := s.Violations(); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	a := s.ops[OpWrite]
	if a.Count != 1 || a.TotalSum != 100 || a.PhaseSum[PhaseGCStall] != 40 {
		t.Fatalf("bad aggregate: %+v", a)
	}

	// A record that does not cover the total must count as a violation.
	s.Folds = nil
	s.BeginTenant(OpRead, 0, 0)
	s.Charge(PhaseNANDRead, 10)
	s.End(50) // 40 ticks unattributed
	if v := s.Violations(); v != 1 {
		t.Fatalf("violations = %d, want 1", v)
	}
}

func TestAttrChargeOutsideRecord(t *testing.T) {
	s := NewAttrSink()
	s.Charge(PhaseGCStall, sim.Second) // no Begin: prefill-style traffic
	s.BeginTenant(OpWrite, 0, 0)
	s.End(0)
	if got := s.ops[OpWrite].PhaseSum[PhaseGCStall]; got != 0 {
		t.Fatalf("charge outside a record leaked: %v", got)
	}
	if s.Violations() != 0 {
		t.Fatalf("zero-latency op is not a violation")
	}
}

func TestAttrSuspendResume(t *testing.T) {
	s := NewAttrSink()
	s.BeginTenant(OpWrite, 0, 0)
	s.Suspend()
	s.Suspend()
	s.Charge(PhaseNANDProgram, 100) // suppressed (fan-out work)
	s.Resume()
	s.Charge(PhaseNANDProgram, 100) // still suppressed: one level left
	s.Resume()
	s.Charge(PhaseGCStall, 70)
	s.End(70)
	if v := s.Violations(); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	if got := s.ops[OpWrite].PhaseSum[PhaseNANDProgram]; got != 0 {
		t.Fatalf("suspended charges leaked: %v", got)
	}
}

// TestAttrEndChecksBrackets is the runtime twin of the bracket discipline:
// a record that ends with a Suspend or a PushWorker still open counts one
// violation, and once the caller closes the bracket a balanced record
// counts none.
func TestAttrEndChecksBrackets(t *testing.T) {
	for _, tc := range []struct {
		name        string
		open, close func(*AttrSink)
	}{
		{"suspend", (*AttrSink).Suspend, (*AttrSink).Resume},
		{"push_worker", func(s *AttrSink) { s.PushWorker(1) }, (*AttrSink).PopWorker},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewAttrSink()
			s.BeginTenant(OpWrite, 0, 0)
			tc.open(s)
			s.Charge(PhaseNANDProgram, 40)
			s.End(40)
			if v := s.Violations(); v != 1 {
				t.Fatalf("bracket open at End: violations = %d, want 1", v)
			}
			tc.close(s)
			s.BeginTenant(OpWrite, 0, 100)
			tc.open(s)
			tc.close(s)
			s.Charge(PhaseNANDProgram, 40)
			s.End(140)
			if v := s.Violations(); v != 1 {
				t.Fatalf("balanced record after the leak: violations = %d, want still 1", v)
			}
		})
	}
}

// TestAttrSuspendLeakCountsOnce checks that a Suspend nobody resumes is one
// violation wherever it leaks: inside a record End counts it and closes it,
// so the next BeginTenant does not count it again; between records (a
// maintenance path that runs outside any measured IO) the next BeginTenant
// counts it and clears it, so that record's End passes.
func TestAttrSuspendLeakCountsOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		leak func(s *AttrSink) // leaves one Suspend open
	}{
		{"inside_record", func(s *AttrSink) {
			s.BeginTenant(OpWrite, 0, 0)
			s.Suspend()
			s.Charge(PhaseNANDProgram, 40)
			s.End(40)
		}},
		{"between_records", func(s *AttrSink) {
			s.BeginTenant(OpWrite, 0, 0)
			s.Charge(PhaseNANDProgram, 40)
			s.End(40)
			s.Suspend()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewAttrSink()
			tc.leak(s)
			for i := sim.Time(1); i <= 2; i++ {
				s.BeginTenant(OpWrite, 0, 100*i)
				s.Charge(PhaseNANDProgram, 40)
				s.End(100*i + 40)
				if v := s.Violations(); v != 1 {
					t.Fatalf("record %d after the leak: violations = %d, want 1", i, v)
				}
			}
			if got := s.Snapshot().Ops[OpWrite].Count; got != 3 {
				t.Fatalf("aggregated %d writes, want 3", got)
			}
		})
	}
}

func TestAttrReclassifyClamps(t *testing.T) {
	s := NewAttrSink()
	s.BeginTenant(OpWrite, 0, 0)
	s.Charge(PhaseLUNWait, 30)
	s.Reclassify(PhaseLUNWait, PhaseWPSerial, 100) // more than charged
	if got := s.Value(PhaseWPSerial); got != 30 {
		t.Fatalf("reclassified %v, want clamp to 30", got)
	}
	if got := s.Value(PhaseLUNWait); got != 0 {
		t.Fatalf("lun_wait left %v, want 0", got)
	}
	s.End(30)
	if s.Violations() != 0 {
		t.Fatal("reclassify must preserve the sum")
	}
}

func TestAttrBeginOverOpenRecord(t *testing.T) {
	s := NewAttrSink()
	s.BeginTenant(OpWrite, 0, 0)
	s.BeginTenant(OpRead, 0, 10) // driver bug: previous record neither ended nor dropped
	s.End(10)
	if s.Violations() != 1 {
		t.Fatalf("violations = %d, want 1", s.Violations())
	}
}

func TestAttrSnapshotDelta(t *testing.T) {
	s := NewAttrSink()
	record := func(total sim.Time) {
		s.BeginTenant(OpRead, 0, 0)
		s.Charge(PhaseNANDRead, total)
		s.End(total)
	}
	record(10)
	record(20)
	before := s.Snapshot()
	record(40)
	d := s.Snapshot().Delta(before)
	if d.Ops[OpRead].Count != 1 || d.Ops[OpRead].TotalSum != 40 {
		t.Fatalf("delta = %+v, want 1 op totaling 40", d.Ops[OpRead])
	}
	if d.Ops[OpRead].Total.Count() != 1 {
		t.Fatalf("delta histogram count = %d, want 1", d.Ops[OpRead].Total.Count())
	}
}

func TestAttrDumpShape(t *testing.T) {
	s := NewAttrSink()
	s.BeginTenant(OpWrite, 0, 0)
	s.Charge(PhaseGCStall, 3*sim.Millisecond)
	s.Charge(PhaseNANDProgram, 700*sim.Microsecond)
	s.End(3*sim.Millisecond + 700*sim.Microsecond)
	raw, err := json.Marshal(s.Snapshot().Dump())
	if err != nil {
		t.Fatal(err)
	}
	var d AttrDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	od, ok := d.Ops["write"]
	if !ok {
		t.Fatalf("dump missing write op: %s", raw)
	}
	if od.Count != 1 || len(od.Phases) != 2 {
		t.Fatalf("dump = %+v, want 1 op with 2 phases", od)
	}
	var frac float64
	for _, ph := range od.Phases {
		frac += ph.Frac
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("phase fractions sum to %v, want 1", frac)
	}
}

// The attribution hot path must not allocate, enabled or disabled.
func TestAttrZeroAllocs(t *testing.T) {
	var nilSink *AttrSink
	if allocs := testing.AllocsPerRun(1000, func() {
		nilSink.BeginTenant(OpWrite, 0, 0)
		nilSink.Charge(PhaseGCStall, 10)
		nilSink.Suspend()
		nilSink.Resume()
		nilSink.End(10)
	}); allocs != 0 {
		t.Fatalf("nil sink allocates %.1f allocs/op, want 0", allocs)
	}
	s := NewAttrSink()
	if allocs := testing.AllocsPerRun(1000, func() {
		s.BeginTenant(OpWrite, 0, 0)
		s.Charge(PhaseGCStall, 10)
		s.Reclassify(PhaseGCStall, PhaseWPSerial, 5)
		s.End(10)
	}); allocs != 0 {
		t.Fatalf("live sink allocates %.1f allocs/op, want 0", allocs)
	}
}
