package telemetry

import (
	"math/bits"

	"blockhead/internal/sim"
)

// IO flags mark exceptional conditions on the active record. A flagged IO
// bypasses the exemplar reservoir's worst-K admission (always kept), so the
// forensic layer never loses the IOs the auditors and fault injectors
// complained about.
const (
	// FlagFaultRetry marks an IO that needed at least one media retry
	// (injected NAND read fault).
	FlagFaultRetry uint8 = 1 << iota
	// FlagAuditViolation marks an IO during which the zone state-machine
	// auditor flagged a violation.
	FlagAuditViolation
)

// Wait slots: the resource-wait phases. A record keeps, per wait phase, how
// many ticks were spent behind each service ("bind") phase, so the what-if
// engine can scale a wait with the cost it tracks.
const (
	WaitWPSerial = iota
	WaitChan
	WaitLUN

	// NumWaits is the number of resource-wait phases.
	NumWaits
)

// Bind slots: the service phases a wait can queue behind.
const (
	BindXfer = iota
	BindRead
	BindProgram
	BindErase

	// NumBinds is the number of bind phases.
	NumBinds
)

// Composite slots: the phases that charge the wall-clock of a suspended
// parallel fan-out (GC relocations, stripe-wide resets, simple-copy
// batches). A record keeps each composite charge's composition: the
// off-path ticks that arrived while the sink was suspended, attached to the
// next composite charge.
const (
	CompGCStall = iota
	CompZoneReset
	CompDevCopy

	// NumComposites is the number of composite phases.
	NumComposites
)

// waitSlot and bindSlot map a phase to its wait and bind slot, -1 for none.
var (
	waitSlot = [NumPhases]int8{-1, WaitWPSerial, -1, -1, -1, WaitChan, -1, WaitLUN, -1, -1, -1}
	bindSlot = [NumPhases]int8{-1, -1, -1, -1, -1, -1, BindXfer, -1, BindRead, BindProgram, BindErase}
)

// WaitIdx maps a phase to its wait slot (-1 if not a wait phase).
func WaitIdx(p Phase) int {
	if uint(p) >= uint(NumPhases) {
		return -1
	}
	return int(waitSlot[p])
}

// BindIdx maps a phase to its bind slot (-1 if not a service phase).
func BindIdx(p Phase) int {
	if uint(p) >= uint(NumPhases) {
		return -1
	}
	return int(bindSlot[p])
}

// BindPhase is the inverse of BindIdx.
func BindPhase(b int) Phase {
	switch b {
	case BindXfer:
		return PhaseXfer
	case BindRead:
		return PhaseNANDRead
	case BindProgram:
		return PhaseNANDProgram
	case BindErase:
		return PhaseNANDErase
	}
	return -1
}

// CompIdx maps a phase to its composite slot (-1 if not composite).
func CompIdx(p Phase) int {
	switch p {
	case PhaseGCStall:
		return CompGCStall
	case PhaseZoneReset:
		return CompZoneReset
	case PhaseDevCopy:
		return CompDevCopy
	}
	return -1
}

// bindOrder is the deterministic order Reclassify and Refund deduct bound
// wait ticks in. Program first: the only in-repo reclassify (lun_wait ->
// wp_serial) and the only in-repo refund (wp_serial early ack) both concern
// waits behind a same-zone program by construction.
var bindOrder = [NumBinds]int{BindProgram, BindErase, BindRead, BindXfer}

// Record is one measured IO's charges, the only copy of them: the AttrSink
// owns one, every charge method writes into it, and at End every consumer
// folds it once (see Fold). It is valid from BeginTenant until the next
// BeginTenant; a fold must copy what it keeps.
//
// Phases holds the on-path (completion-bounding) ticks per phase and sums
// exactly to Total in a correct build. Blame splits the blame-phase ticks
// by culprit tenant. WaitBy splits each wait phase's ticks by the service
// phase of the occupant waited behind (the remainder queued behind an
// unknown blocker). Off holds the depth-1 off-path ticks — work that ran
// under a suspended fan-out — and Comp each composite phase's share of
// them.
//
// The masks name what the record touched: bit p of PhaseMask once phase p
// was charged, bit c of BlameMask once culprit c was blamed, bit p of
// OffMask once phase p ran off-path. Folds loop over them rather than the
// whole arrays, and the next BeginTenant clears the composite and off-path
// cells only where they name.
type Record struct {
	Seq    uint64
	Op     OpKind
	Tenant TenantID
	Flags  uint8
	Start  sim.Time
	Total  sim.Time // set by End

	Phases [NumPhases]sim.Time
	Blame  [MaxTenants]sim.Time
	WaitBy [NumWaits][NumBinds]sim.Time
	Off    [NumPhases]sim.Time
	Comp   [NumComposites][NumPhases]sim.Time

	PhaseMask uint16
	OffMask   uint16
	BlameMask uint8

	compMask uint8
	pendMask uint16
	pend     [NumPhases]sim.Time // off-path ticks not yet adopted by a composite
}

// Fold consumes completed records. The AttrSink calls every attached fold
// once per completed IO, at End, after its own aggregation and checks.
// Implementations must not allocate on the common path: the call sits on
// the simulator's per-IO hot path.
type Fold interface {
	Fold(r *Record)
}

// EventKind names one charge of a record's lifetime as the Tap sees it.
type EventKind uint8

const (
	// EvSegment is an on-path charge (Culprit: the culprit as passed).
	EvSegment EventKind = iota
	// EvWait is an on-path resource-wait charge with its culprit (as
	// passed; SelfTenant when the record's own tenant) and the service
	// phase of the occupant waited behind in To (< 0 when unknown).
	EvWait
	// EvOverlap is an off-path charge at suspension depth 1.
	EvOverlap
	// EvReassign is a Reclassify from P to To.
	EvReassign
	// EvRefund is a Refund of D ticks from P.
	EvRefund
	// EvDrop is the record being abandoned by Drop.
	EvDrop
)

// ChargeEvent is one charge of the open record.
type ChargeEvent struct {
	Kind    EventKind
	P, To   Phase
	Culprit TenantID
	D       sim.Time
}

// bit returns the mask bit of phase p.
func bit(p Phase) uint16 { return 1 << uint(p) }

// reset opens the record for a new IO. The small arrays every IO touches
// are cleared whole; the composite compositions and off-path ticks, which
// few IOs touch, only where the previous IO wrote.
func (r *Record) reset(op OpKind, t TenantID, start sim.Time) {
	r.Phases = [NumPhases]sim.Time{}
	r.Blame = [MaxTenants]sim.Time{}
	r.WaitBy = [NumWaits][NumBinds]sim.Time{}
	for m := r.compMask; m != 0; m &= m - 1 {
		r.Comp[bits.TrailingZeros(uint(m))] = [NumPhases]sim.Time{}
	}
	for m := r.OffMask; m != 0; m &= m - 1 {
		r.Off[bits.TrailingZeros(uint(m))] = 0
	}
	for m := r.pendMask; m != 0; m &= m - 1 {
		r.pend[bits.TrailingZeros(uint(m))] = 0
	}
	r.PhaseMask, r.BlameMask, r.OffMask, r.compMask, r.pendMask = 0, 0, 0, 0, 0
	r.Seq++
	r.Op, r.Tenant, r.Start, r.Total, r.Flags = op, t, start, 0, 0
}

// overlap adds a depth-1 off-path charge, pending adoption by the next
// composite charge.
func (r *Record) overlap(p Phase, d sim.Time) {
	r.Off[p] += d
	r.pend[p] += d
	r.OffMask |= bit(p)
	r.pendMask |= bit(p)
}

// adopt attaches the pending off-path ticks to composite slot c.
func (r *Record) adopt(c int) {
	for m := r.pendMask; m != 0; m &= m - 1 {
		q := bits.TrailingZeros(uint(m))
		r.Comp[c][q] += r.pend[q]
		r.pend[q] = 0
	}
	r.pendMask = 0
	r.compMask |= 1 << uint(c)
}

// moveWaits moves up to d bound ticks of wait phase from to wait phase to,
// in bindOrder; when to is not a wait phase (a refund, or a relabel out of
// the wait set) the ticks are dropped.
func (r *Record) moveWaits(from, to Phase, d sim.Time) {
	fi := WaitIdx(from)
	if fi < 0 || d <= 0 {
		return
	}
	ti := WaitIdx(to)
	for _, b := range bindOrder {
		take := sim.Min(d, r.WaitBy[fi][b])
		if take <= 0 {
			continue
		}
		r.WaitBy[fi][b] -= take
		if ti >= 0 {
			r.WaitBy[ti][b] += take
		}
		if d -= take; d == 0 {
			return
		}
	}
}
