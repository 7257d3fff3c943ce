package reclaim

import (
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// Progress is what one Engine.Copy call did.
type Progress struct {
	Next  int64 // the first victim offset not examined
	Moved int   // live pages copied
	// Issue is when a whole victim's erase may be issued, by the stack's
	// rule: ftl queues it behind the copies at once (later only if a copy
	// destination had to be retired on the way), hostftl waits for them.
	Issue sim.Time
	Done  sim.Time // completion high-water of the copies
	Empty bool     // every offset examined: nothing live is left
	OK    bool     // false: stopped short on a failure
}

// Engine schedules reclamation for one stack: whole victims in the
// foreground, bounded incremental chunks, and the emergency pass between
// them. It owns the page map, the victim index, the in-flight incremental
// victim, and the blame state.
type Engine struct {
	Mapping
	Index

	// Copy is the stack's copy loop: it moves victim's live pages from offset
	// from on — at most budget of them, or all when budget < 0 — with copies
	// issued at at.
	Copy func(at sim.Time, victim int, from int64, budget int) Progress
	// Erase is the stack's erase: it recycles an emptied victim at at and
	// returns when that completes (0 if the erase failed and the unit is
	// lost).
	Erase func(at sim.Time, victim int) sim.Time

	// Barrier holds every erase until the victim's copies are durable: the
	// crash-consistency rule when power loss is in the model (a crash in
	// between destroys the only surviving version).
	Barrier bool

	// Victim is the in-flight incremental victim (-1 if none). Cursor is its
	// next offset, RelocDone the completion high-water of its copies.
	Victim    int
	Cursor    int64
	RelocDone sim.Time

	// OnPick observes every pick; differential tests set it, production
	// leaves it nil.
	OnPick func(at sim.Time, victim int)

	// Blame state: per unit, how many of its dead pages each tenant killed by
	// overwrite or trim — the evidence that names a victim's dominant
	// polluter. Culprit is the tenant the current round's stall blames: the
	// dominant polluter of the victim whose reclamation advanced time the
	// most (SelfTenant when none ran or no polluter stood out).
	Attr    *telemetry.AttrSink
	deadBy  [][telemetry.MaxTenants]int32
	Culprit telemetry.TenantID
	topAdv  sim.Time

	// Flight is the stack's flight recorder, nil (no-op) without a probe;
	// Kind labels the stack's reclamation records in it.
	Flight *telemetry.Flight
	Kind   telemetry.FlightKind
}

// New returns an engine over units erase units of unitPages pages each,
// serving logical pages, with nothing mapped. A unit's index key runs from 0
// to unitPages.
func New(units, unitPages int, logical int64) Engine {
	e := Engine{
		Mapping: Mapping{
			L2P:       make([]int32, logical),
			P2L:       make([]int32, units*unitPages),
			Valid:     make([]int64, units),
			unitPages: unitPages,
		},
		Index: NewIndex(units, unitPages),
	}
	e.Forget()
	return e
}

// pick takes the best victim out of the index, so its relocation moves no
// bucket lists and no pick returns it while it is in flight. Its key is
// kept as the part its live count does not make up, to put it back by if
// its reclamation fails.
func (e *Engine) pick(at sim.Time) int {
	v := e.Pick(at)
	if e.OnPick != nil {
		e.OnPick(at, v)
	}
	if v >= 0 {
		e.Remove(v)
		e.n[v].key -= int32(e.Valid[v])
	}
	return v
}

// Foreground reclaims whole victims while low reports the pool short, and
// returns when the last one completes: the time a write stalled behind them
// may proceed.
func (e *Engine) Foreground(at sim.Time, low func() bool) sim.Time {
	for low() {
		v := e.pick(at)
		if v < 0 {
			break
		}
		done, ok := e.reclaim(at, v, 0)
		if !ok {
			break
		}
		at = sim.Max(at, done)
	}
	return at
}

// Emergency finishes the in-flight incremental victim first — it is out of
// the index, so its dead space is otherwise stranded — then runs
// Foreground.
func (e *Engine) Emergency(at sim.Time, low func() bool) sim.Time {
	if v := e.Victim; v >= 0 {
		e.Victim = -1
		if done, ok := e.reclaim(at, v, e.Cursor); ok {
			at = sim.Max(at, done)
		}
	}
	return e.Foreground(at, low)
}

// reclaim relocates and erases one victim under its dominant polluter's
// worker identity — the relocation and erase occupy LUNs and channels on
// the culprit's behalf, so later arrivals' waits blame it — and records the
// culprit of the round's largest time advance for the triggering write's
// gc_stall charge.
func (e *Engine) reclaim(at sim.Time, v int, from int64) (sim.Time, bool) {
	c := e.dominant(v)
	e.Attr.PushWorker(c)
	defer e.Attr.PopWorker()
	p := e.Copy(at, v, from, -1)
	if !p.OK {
		e.Insert(v, int(e.n[v].key)+int(e.Valid[v])) // a candidate again, as it now stands
		return at, false
	}
	eraseAt := p.Issue
	if e.Barrier {
		eraseAt = sim.Max(eraseAt, p.Done)
	}
	done := sim.Max(p.Done, e.erase(eraseAt, v))
	if done-at > e.topAdv {
		e.topAdv, e.Culprit = done-at, c
	}
	e.Flight.Record(at, e.Kind, int32(v), "", int64(p.Moved))
	return done, true
}

// erase has the stack recycle an emptied victim.
func (e *Engine) erase(at sim.Time, v int) sim.Time {
	e.Valid[v] = 0
	if e.deadBy != nil {
		e.deadBy[v] = [telemetry.MaxTenants]int32{}
	}
	return e.Erase(at, v)
}

// Chunk advances incremental reclamation by at most budget copied pages and
// at most one erase, working through the in-flight victim a chunk at a time.
// The work is issued at at and never holds the caller. The single-erase cap
// matters as much as the copy budget: a backlog of fully dead units costs no
// copies, and erasing them all in one call would park their erases on the
// LUNs at once — exactly the tail spike this mode exists to avoid.
func (e *Engine) Chunk(at sim.Time, budget int) {
	for budget > 0 {
		if e.Victim < 0 {
			v := e.pick(at)
			if v < 0 {
				return
			}
			e.Victim, e.Cursor = v, 0
			e.Flight.Record(at, e.Kind, int32(v), "incremental", e.Valid[v])
		}
		e.Attr.PushWorker(e.dominant(e.Victim))
		p := e.Copy(at, e.Victim, e.Cursor, budget)
		e.Cursor, e.RelocDone = p.Next, sim.Max(e.RelocDone, p.Done)
		budget -= p.Moved
		if p.Empty {
			eraseAt := at
			if e.Barrier {
				eraseAt = sim.Max(eraseAt, e.RelocDone)
			}
			e.erase(eraseAt, e.Victim)
			e.Victim = -1
		}
		e.Attr.PopWorker()
		if p.Empty || !p.OK {
			return
		}
	}
}

// Attach hands the engine the stack's telemetry. An attribution sink starts
// blame tracking: per-page writers and per-unit death counts.
func (e *Engine) Attach(attr *telemetry.AttrSink, fl *telemetry.Flight) {
	e.Attr, e.Flight = attr, fl
	if attr != nil && e.deadBy == nil {
		e.Owner = make([]telemetry.TenantID, len(e.P2L))
		e.deadBy = make([][telemetry.MaxTenants]int32, len(e.Valid))
	}
}

// NewRound starts a write's reclamation round.
func (e *Engine) NewRound() {
	e.Culprit, e.topAdv = telemetry.SelfTenant, 0
}

// dominant names the tenant that killed the most pages in unit, ties
// toward the lower ID; SelfTenant when nothing died there or blame is off.
func (e *Engine) dominant(unit int) telemetry.TenantID {
	if e.deadBy == nil {
		return telemetry.SelfTenant
	}
	best, bestN := telemetry.SelfTenant, int32(0)
	for t, n := range e.deadBy[unit] {
		if n > bestN {
			best, bestN = telemetry.TenantID(t), n
		}
	}
	return best
}

// owner maps a worker tenant into the per-tenant index space.
func owner(t telemetry.TenantID) telemetry.TenantID {
	if t < 0 || t >= telemetry.MaxTenants {
		return 0
	}
	return t
}
