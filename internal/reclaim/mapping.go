package reclaim

import (
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Unmapped marks an empty mapping-table entry.
const Unmapped = int32(-1)

// Mapping is a stack's page map, shared because the interface does not
// change it: logical to physical page and back, live pages per erase unit
// (physical page p lies in unit p / unit pages, for blocks and zones alike),
// and, when blame is armed, each physical page's writer. The tables hold
// 4-byte page numbers, the paper's own estimate (§2.2).
type Mapping struct {
	L2P, P2L []int32
	Valid    []int64
	Owner    []telemetry.TenantID
	// LastKill, when allocated, is each unit's latest page death: the age a
	// cost-benefit policy weighs.
	LastKill  []sim.Time
	unitPages int
}

// kill unmaps physical page phys, whose logical page the current worker
// overwrote or trimmed at at; its unit's dead space now blames that worker.
func (e *Engine) kill(at sim.Time, phys int32) {
	if phys == Unmapped {
		return
	}
	u := int(phys) / e.unitPages
	e.P2L[phys] = Unmapped
	e.Valid[u]--
	e.Add(u, -1)
	if e.LastKill != nil {
		e.LastKill[u] = at
	}
	if e.deadBy != nil {
		e.deadBy[u][owner(e.Attr.Worker())]++
	}
}

// Bind maps lpn to phys, a page the current worker just wrote to an open
// unit, killing the page lpn held before.
func (e *Engine) Bind(at sim.Time, lpn int64, phys int32) {
	e.kill(at, e.L2P[lpn])
	e.L2P[lpn], e.P2L[phys] = phys, int32(lpn)
	e.Valid[int(phys)/e.unitPages]++
	if e.Owner != nil {
		e.Owner[phys] = owner(e.Attr.Worker())
	}
}

// Move re-points lpn's physical side after a relocation copy from src, in
// unit srcUnit — the victim or a unit that cannot be reclaimed (a retired
// block, a read-only zone) — to dst, in dstUnit, an open unit: neither is in
// the index. The caller knows both units, so the page numbers are not
// divided here. The page keeps its writer, since moving data does not
// launder who polluted the unit it lands in. The caller stores L2P[lpn] =
// dst when it chooses.
func (e *Engine) Move(lpn, src, dst int32, srcUnit, dstUnit int) {
	if e.Owner != nil {
		e.Owner[dst] = e.Owner[src]
	}
	e.P2L[src], e.P2L[dst] = Unmapped, lpn
	e.Valid[srcUnit]--
	e.Valid[dstUnit]++
}

// Drop unmaps lpn, whose only copy, phys, a relocation found unreadable: a
// detected loss. Its unit is the victim or a retired one, both outside the
// index, and nobody killed the page, so no blame moves.
func (m *Mapping) Drop(lpn, phys int32) {
	m.P2L[phys], m.L2P[lpn] = Unmapped, Unmapped
	m.Valid[int(phys)/m.unitPages]--
}

// Rebuild points lpn at phys, a newer copy a recovery scan found, in place
// of whatever page it held. The index and the blame state are rebuilt after
// the scan, so neither moves here.
func (m *Mapping) Rebuild(lpn int64, phys int32) {
	if old := m.L2P[lpn]; old != Unmapped {
		m.P2L[old] = Unmapped
		m.Valid[int(old)/m.unitPages]--
	}
	m.L2P[lpn], m.P2L[phys] = phys, int32(lpn)
	m.Valid[int(phys)/m.unitPages]++
}

// Trim unmaps logical pages [lpn, lpn+n).
func (e *Engine) Trim(at sim.Time, lpn, n int64) {
	for i := lpn; i < lpn+n; i++ {
		e.kill(at, e.L2P[i])
		e.L2P[i] = Unmapped
	}
}

// Forget drops everything volatile a power loss takes: the whole map, the
// victim index, and the in-flight victim. Recovery rebuilds the rest.
func (e *Engine) Forget() {
	fill(e.L2P, Unmapped)
	fill(e.P2L, Unmapped)
	clear(e.Valid)
	e.Clear()
	e.Victim, e.Cursor = -1, 0
}

// Mapped counts the logical pages that have a physical page.
func (e *Engine) Mapped() int64 {
	var n int64
	for _, p := range e.L2P {
		if p != Unmapped {
			n++
		}
	}
	return n
}

func fill(t []int32, v int32) {
	for i := range t {
		t[i] = v
	}
}
