package zns

import (
	"bytes"
	"strings"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// auditProbe returns a full probe whose flight recorder auto-dumps into buf
// instead of stderr, so tests can assert on the dump.
func auditProbe(buf *bytes.Buffer) *telemetry.Probe {
	p := telemetry.NewProbe()
	p.FlightRec.DumpTo = buf
	return p
}

// A correct device produces zero violations over a full lifecycle churn:
// open, close, implicit reopen, fill to full, finish, reset.
func TestAuditorCleanLifecycle(t *testing.T) {
	d := mustNew(t, testCfg())
	aud := d.AttachAuditor()
	var at sim.Time
	if err := d.Open(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(at, 0); err != nil {
		t.Fatal(err)
	}
	// Writing to the closed zone implicitly reopens it; filling it makes it
	// Full; the reset returns it to Empty.
	for o := int64(0); o < d.ZonePages(); o++ {
		var err error
		if at, err = d.Write(at, d.LBA(0, o), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Reset(at, 0); err != nil {
		t.Fatal(err)
	}
	// Finish from Open and from Empty are both legal.
	if err := d.Open(at, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(at, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(at, 2); err != nil {
		t.Fatal(err)
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("clean lifecycle produced %d violations", v)
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
}

// An illegal transition forced past the public API is caught, counted by
// kind, and triggers an automatic flight-recorder dump naming the pair.
func TestAuditorCatchesIllegalTransition(t *testing.T) {
	var buf bytes.Buffer
	d := mustNew(t, testCfg())
	d.SetProbe(auditProbe(&buf))
	aud := d.AttachAuditor()
	// Record some legitimate history first so the dump has context.
	at, err := d.Write(0, d.LBA(1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.transition(at, 0, Closed) // Empty->Closed: not in the spec's table
	if v := aud.Violations(); v != 1 {
		t.Fatalf("Violations = %d, want 1", v)
	}
	if v := aud.ViolationsByKind(AuditIllegalTransition); v != 1 {
		t.Fatalf("ViolationsByKind(illegal_transition) = %d, want 1", v)
	}
	dump := buf.String()
	if !strings.Contains(dump, "flight recorder") {
		t.Errorf("violation did not auto-dump the flight recorder:\n%s", dump)
	}
	if !strings.Contains(dump, "empty->closed") {
		t.Errorf("dump does not name the illegal pair:\n%s", dump)
	}
	if !strings.Contains(dump, "audit_violation") {
		t.Errorf("dump does not carry the violation event:\n%s", dump)
	}
	// The forged transition also desynced the device's own active-zone
	// bookkeeping; the quiescent Check must refuse it too.
	if err := aud.Check(); err == nil {
		t.Error("Check accepted a device with forged state")
	}
}

// A state change that bypasses transition entirely shows up as a mismatch on
// the next observed transition, after which the mirror resynchronizes.
func TestAuditorStateMismatch(t *testing.T) {
	var buf bytes.Buffer
	d := mustNew(t, testCfg())
	d.SetProbe(auditProbe(&buf))
	aud := d.AttachAuditor()
	// Corrupt zone 1 behind the auditor's back, keeping the device's own
	// bookkeeping consistent so only the bypass itself is the defect.
	d.zones[1].state = Closed
	d.active++
	if err := d.Open(0, 1); err != nil { // Closed->Open, but mirror says Empty
		t.Fatal(err)
	}
	if v := aud.ViolationsByKind(AuditStateMismatch); v != 1 {
		t.Fatalf("ViolationsByKind(state_mismatch) = %d, want 1", v)
	}
	if v := aud.ViolationsByKind(AuditIllegalTransition); v != 0 {
		t.Fatalf("legal Closed->Open flagged as illegal (%d)", v)
	}
	// The mismatch resynchronized the mirror and its derived counts.
	if err := aud.Check(); err != nil {
		t.Fatalf("auditor did not resync after mismatch: %v", err)
	}
}

// The auditor's per-transition hook and the flight recorder's disabled path
// are allocation-free — the contract that lets transition call them
// unconditionally.
func TestDisabledAuditZeroAllocs(t *testing.T) {
	var a *Auditor
	var fl *telemetry.Flight
	allocs := testing.AllocsPerRun(1000, func() {
		a.observe(0, 0, Empty, Open)
		fl.Record(0, telemetry.FlightTransition, 0, transPair[Empty][Open], 0)
		fl.Violation(0, telemetry.FlightAuditViolation, 0, "", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled audit path allocates %.1f allocs/op, want 0", allocs)
	}
	if a.Violations() != 0 || a.ViolationsByKind(AuditIllegalTransition) != 0 {
		t.Fatal("nil auditor reported violations")
	}
}

// The enabled no-violation observe path is allocation-free too.
func TestEnabledAuditObserveZeroAllocs(t *testing.T) {
	d := mustNew(t, testCfg())
	aud := d.AttachAuditor()
	allocs := testing.AllocsPerRun(1000, func() {
		aud.observe(0, 0, Empty, Open)
		aud.observe(0, 0, Open, Empty)
	})
	if allocs != 0 {
		t.Fatalf("enabled observe allocates %.1f allocs/op, want 0", allocs)
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("legal open/release cycles flagged: %d violations", v)
	}
}

func TestStateCensus(t *testing.T) {
	d := mustNew(t, testCfg()) // 8 zones
	var at sim.Time
	d.Open(at, 0)
	d.Open(at, 1)
	d.Close(at, 1)
	d.Finish(at, 2)
	c := d.StateCensus()
	if c[Empty] != 5 || c[Open] != 1 || c[Closed] != 1 || c[Full] != 1 {
		t.Fatalf("census = %v", c)
	}
	want := "empty=5 open=1 closed=1 full=1 read-only=0 offline=0"
	if c.String() != want {
		t.Fatalf("census string = %q, want %q", c.String(), want)
	}
}
