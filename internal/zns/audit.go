// Zone state-machine auditor: an allocation-free shadow of the ZNS-spec
// zone state machine. Every state change routed through (*Device).transition
// is validated against the spec's legal-transition table, and the auditor
// maintains its own derived active/open counts so a bookkeeping bug in the
// device cannot hide itself. zns-tools-style conformance checking, run
// in-process at simulation speed.

package zns

import (
	"fmt"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// legalTransitions is the ZNS-spec zone state machine, with implicitly and
// explicitly opened states merged into Open (this model does not distinguish
// them). Rows are the source state, columns the target.
var legalTransitions [numZoneStates][numZoneStates]bool

// transPair holds preallocated "from->to" labels so recording a transition
// in the flight recorder never allocates.
var transPair [numZoneStates][numZoneStates]string

func init() {
	allow := func(from ZoneState, tos ...ZoneState) {
		for _, to := range tos {
			legalTransitions[from][to] = true
		}
	}
	allow(Empty, Open, Full, Offline)
	allow(Open, Closed, Full, Empty, ReadOnly, Offline)
	allow(Closed, Open, Full, Empty, ReadOnly, Offline)
	allow(Full, Empty, ReadOnly, Offline)
	allow(ReadOnly, Offline)
	// ReadOnly is entered only from states that can hold readable data
	// (Open/Closed/Full): a media failure in an Empty zone has nothing to
	// preserve and takes the zone straight Offline. ReadOnly's only exit is
	// Offline, and Offline is terminal — a zone that grew a bad stripe
	// block never returns to service, which is exactly the stranded-capacity
	// cost the fault campaign (E13) measures.

	for f := 0; f < numZoneStates; f++ {
		for t := 0; t < numZoneStates; t++ {
			transPair[f][t] = ZoneState(f).String() + "->" + ZoneState(t).String()
		}
	}
}

// AuditKind classifies one auditor violation.
type AuditKind int

const (
	// AuditIllegalTransition is a state change the ZNS spec does not allow.
	AuditIllegalTransition AuditKind = iota
	// AuditStateMismatch means the device's zone state diverged from the
	// auditor's mirror — a state change bypassed transition.
	AuditStateMismatch
	// AuditActiveLimit means open+closed zones exceeded MaxActive.
	AuditActiveLimit
	// AuditOpenLimit means open zones exceeded MaxOpen.
	AuditOpenLimit

	numAuditKinds = int(AuditOpenLimit) + 1
)

var auditKindNames = [numAuditKinds]string{
	"illegal_transition", "state_mismatch", "active_limit", "open_limit",
}

// String returns the kind's stable name.
func (k AuditKind) String() string {
	if int(k) >= numAuditKinds {
		return "unknown"
	}
	return auditKindNames[k]
}

// Auditor shadows a Device's zone state machine. It observes every
// transition (allocation-free), counts violations by kind, and maintains
// independently derived active/open-zone counts checked against the
// configured limits on every observation and against the device's own
// bookkeeping by Check. The nil *Auditor no-ops.
//
// Violations feed the device's flight recorder (when a probe is attached),
// so the first illegal transition dumps the recent event history.
type Auditor struct {
	d      *Device
	mirror []ZoneState
	active int
	open   int

	violations uint64
	byKind     [numAuditKinds]uint64
}

// AttachAuditor attaches a fresh auditor to the device, seeded from the
// current zone states. All subsequent transitions are validated.
func (d *Device) AttachAuditor() *Auditor {
	a := &Auditor{d: d, mirror: make([]ZoneState, len(d.zones))}
	for z := range d.zones {
		s := d.zones[z].state
		a.mirror[z] = s
		switch s {
		case Open:
			a.open++
			a.active++
		case Closed:
			a.active++
		case Empty, Full, ReadOnly, Offline:
			// Not active: holds no open/active resources.
		}
	}
	d.audit = a
	return a
}

// observe validates one transition. Called from (*Device).transition with
// from != to; allocation-free on the no-violation path.
func (a *Auditor) observe(at sim.Time, z int, from, to ZoneState) {
	if a == nil {
		return
	}
	if a.mirror[z] != from {
		a.flag(at, z, AuditStateMismatch, transPair[a.mirror[z]][from])
		a.uncount(a.mirror[z])
		a.count(from)
	}
	if !legalTransitions[from][to] {
		a.flag(at, z, AuditIllegalTransition, transPair[from][to])
	}
	a.uncount(from)
	a.count(to)
	a.mirror[z] = to
	if m := a.d.cfg.MaxActive; m != 0 && a.active > m {
		a.flag(at, z, AuditActiveLimit, auditKindNames[AuditActiveLimit])
	}
	if m := a.d.cfg.MaxOpen; m != 0 && a.open > m {
		a.flag(at, z, AuditOpenLimit, auditKindNames[AuditOpenLimit])
	}
}

func (a *Auditor) count(s ZoneState) {
	switch s {
	case Open:
		a.open++
		a.active++
	case Closed:
		a.active++
	case Empty, Full, ReadOnly, Offline:
		// Not active: holds no open/active resources.
	}
}

func (a *Auditor) uncount(s ZoneState) {
	switch s {
	case Open:
		a.open--
		a.active--
	case Closed:
		a.active--
	case Empty, Full, ReadOnly, Offline:
		// Not active: held no open/active resources.
	}
}

func (a *Auditor) flag(at sim.Time, z int, kind AuditKind, detail string) {
	a.violations++
	a.byKind[kind]++
	a.d.fl.Violation(at, telemetry.FlightAuditViolation, int32(z), detail, int64(kind))
	// Mark the measured IO whose state change tripped the auditor, so the
	// exemplar reservoir always keeps it for forensics (no-op when no
	// record is open — e.g. prefill or maintenance transitions).
	a.d.attr.FlagIO(telemetry.FlagAuditViolation)
}

// Violations reports the total violation count; nil-safe.
func (a *Auditor) Violations() uint64 {
	if a == nil {
		return 0
	}
	return a.violations
}

// ViolationsByKind reports the violation count of one kind; nil-safe.
func (a *Auditor) ViolationsByKind(k AuditKind) uint64 {
	if a == nil {
		return 0
	}
	return a.byKind[k]
}

// Check does a full consistency pass at a quiescent point: the mirror must
// match every zone's state, the incrementally derived active/open counts
// must match both a fresh census and the device's own bookkeeping, and the
// configured limits must hold. Nil-safe (no auditor, nothing to check).
func (a *Auditor) Check() error {
	if a == nil {
		return nil
	}
	d := a.d
	active, open := 0, 0
	for z := range d.zones {
		s := d.zones[z].state
		if a.mirror[z] != s {
			return fmt.Errorf("zns audit: zone %d is %v but mirror says %v", z, s, a.mirror[z])
		}
		switch s {
		case Open:
			open++
			active++
		case Closed:
			active++
		case Empty, Full, ReadOnly, Offline:
			// Not active: contributes to neither census.
		}
	}
	if active != d.active || open != d.open {
		return fmt.Errorf("zns audit: census active/open %d/%d, device bookkeeping %d/%d",
			active, open, d.active, d.open)
	}
	if a.active != active || a.open != open {
		return fmt.Errorf("zns audit: incremental active/open %d/%d, census %d/%d",
			a.active, a.open, active, open)
	}
	if m := d.cfg.MaxActive; m != 0 && active > m {
		return fmt.Errorf("zns audit: %d active zones exceed MaxActive %d", active, m)
	}
	if m := d.cfg.MaxOpen; m != 0 && open > m {
		return fmt.Errorf("zns audit: %d open zones exceed MaxOpen %d", open, m)
	}
	return nil
}

// StateCounts is a census of zones by state, indexed by ZoneState.
type StateCounts [numZoneStates]int

// String formats the census as "empty=N open=N ... offline=N".
func (c StateCounts) String() string {
	s := ""
	for i, n := range c {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", ZoneState(i), n)
	}
	return s
}

// StateCensus counts the device's zones by state.
func (d *Device) StateCensus() StateCounts {
	var c StateCounts
	for z := range d.zones {
		c[d.zones[z].state]++
	}
	return c
}
