package telemetry

import (
	"testing"

	"blockhead/internal/sim"
)

func TestWindowSetObserve(t *testing.T) {
	w := NewWindowSet(WindowCfg{Width: sim.Millisecond, Keep: 4})
	if w.Width() != sim.Millisecond || w.keep != 4 {
		t.Fatalf("cfg not applied: width=%v keep=%d", w.Width(), w.keep)
	}

	// Two ops in window 0, one in window 2; tenant 2 untouched.
	w.Observe(1, OpRead, 100*sim.Microsecond, 50*sim.Microsecond)
	w.Observe(1, OpRead, 900*sim.Microsecond, 150*sim.Microsecond)
	w.Observe(1, OpWrite, 2500*sim.Microsecond, 70*sim.Microsecond)

	wins := w.Snapshot(1)
	if len(wins) != 2 {
		t.Fatalf("snapshot windows = %d, want 2", len(wins))
	}
	if wins[0].Seq != 0 || wins[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d, want 0,2", wins[0].Seq, wins[1].Seq)
	}
	if wins[1].Start != 2*sim.Millisecond {
		t.Fatalf("window 2 start = %v", wins[1].Start)
	}
	rd := wins[0].Ops[OpRead]
	if rd.Count != 2 || rd.Sum != 200*sim.Microsecond {
		t.Fatalf("window 0 read: count=%d sum=%v", rd.Count, rd.Sum)
	}
	if wins[1].Ops[OpWrite].Count != 1 {
		t.Fatalf("window 2 write count = %d", wins[1].Ops[OpWrite].Count)
	}
	if got := w.Snapshot(2); len(got) != 0 {
		t.Fatalf("untouched tenant has %d windows", len(got))
	}
}

func TestWindowSetEvictionAndLate(t *testing.T) {
	w := NewWindowSet(WindowCfg{Width: sim.Millisecond, Keep: 4})
	// Fill windows 0..5; the ring keeps only the last 4 (2..5).
	for seq := int64(0); seq < 6; seq++ {
		done := sim.Time(seq)*sim.Millisecond + 10*sim.Microsecond
		w.Observe(1, OpRead, done, 25*sim.Microsecond)
	}
	wins := w.Snapshot(1)
	if len(wins) != 4 || wins[0].Seq != 2 || wins[3].Seq != 5 {
		t.Fatalf("retained seqs wrong: %+v", wins)
	}
	// An observation landing in an evicted window must be dropped as
	// late, not smeared into a newer window's histogram.
	w.Observe(1, OpRead, 1500*sim.Microsecond, 25*sim.Microsecond)
	if w.late != 1 {
		t.Fatalf("late = %d, want 1", w.late)
	}
	if got := w.Snapshot(1); len(got) != 4 || got[0].Ops[OpRead].Count != 1 {
		t.Fatalf("late observation mutated the ring: %+v", got)
	}
}

func TestWindowSetDefaultsAndClamp(t *testing.T) {
	w := NewWindowSet(WindowCfg{})
	if w.Width() != DefaultWindowWidth || w.keep != DefaultWindowKeep {
		t.Fatalf("defaults: width=%v keep=%d", w.Width(), w.keep)
	}
	// Out-of-range tenants clamp to 0; out-of-range ops are dropped.
	w.Observe(-3, OpRead, 0, sim.Microsecond)
	w.Observe(MaxTenants+5, OpRead, 0, sim.Microsecond)
	w.Observe(1, OpKind(-1), 0, sim.Microsecond)
	w.Observe(1, OpKind(NumOps), 0, sim.Microsecond)
	if got := w.Snapshot(0); len(got) != 1 || got[0].Ops[OpRead].Count != 2 {
		t.Fatalf("clamped observations: %+v", got)
	}
	if len(w.Snapshot(1)) != 0 {
		t.Fatal("invalid op kinds must be dropped")
	}
	if w.Snapshot(-1) != nil || w.Snapshot(MaxTenants) != nil {
		t.Fatal("out-of-range Snapshot must be nil")
	}
}

func TestWindowSetNil(t *testing.T) {
	var w *WindowSet
	w.Observe(1, OpRead, 0, sim.Microsecond) // must not panic
	if w.Width() != 0 || w.Snapshot(1) != nil {
		t.Fatal("nil WindowSet must be a zero no-op")
	}
}
