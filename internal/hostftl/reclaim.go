package hostftl

import (
	"errors"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/zns"
)

// Reclamation thresholds, in free zones. Inline mode waits until the pool
// is nearly dry and then stalls the triggering write for a full victim;
// incremental mode starts earlier and spreads the work.
const (
	inlineLowWater        = 2
	incrementalStartWater = 4
)

// MaintenanceStep lets the host schedule reclamation entirely on its own
// clock (§4.1: "the host is in full control and can precisely schedule
// zone erasures and maintenance operations"). It relocates at most budget
// valid pages (plus any free zone resets) if the free pool is at or below
// targetFree, and reports whether it did anything. Driving this from a
// paced maintenance loop decouples reclamation from write bursts — the
// mechanism behind the paper's §2.4 tail-latency results.
func (f *FTL) MaintenanceStep(at sim.Time, budget, targetFree int) bool {
	f.maintTicks++
	// Maintenance is background work: never attribute its device ops to
	// whatever host IO record happens to be open.
	f.attr.Suspend()
	defer f.attr.Resume()
	if f.freeZones.n > targetFree {
		return false
	}
	before := f.gcResets
	beforeFree := f.freeZones.n
	f.reclaimChunk(at, budget, targetFree)
	return f.gcResets != before || f.freeZones.n != beforeFree || f.gcVictim >= 0
}

// reclaim makes free space per the configured policy and returns the time
// at which the triggering host write may proceed. In incremental mode the
// relocation chunk is issued concurrently with the write (the host owns
// scheduling, §4.1), so the returned time equals at; the cost surfaces only
// as device-resource contention.
func (f *FTL) reclaim(at sim.Time) sim.Time {
	// Relocation fans out across zones/LUNs; the caller charges the
	// host-visible stall (how far `at` advanced) as one phase instead.
	f.attr.Suspend()
	defer f.attr.Resume()
	// Blame bookkeeping for the triggering write's gc_stall charge: the
	// culprit is the dominant polluter of the victim whose reclamation
	// advanced time the most in this round.
	f.lastCulprit = telemetry.SelfTenant
	f.gcTopAdv = 0
	switch f.cfg.GCMode {
	case GCIncremental:
		if f.freeZones.n <= 1 {
			// Emergency: the pool is dry; fall back to a blocking pass.
			f.emergencies++
			f.mEmergencies.Inc()
			f.tr.Instant(telemetry.ProcHostFTL, 0, "hostftl", "emergency", at)
			return f.reclaimInline(at)
		}
		if f.freeZones.n <= incrementalStartWater {
			f.reclaimChunk(at, f.cfg.GCChunkPages, incrementalStartWater)
		}
		return at
	default:
		if f.freeZones.n > inlineLowWater {
			return at
		}
		return f.reclaimInline(at)
	}
}

// reclaimInline relocates whole victims until the pool recovers, returning
// the completion time of the last reset — the conventional-style stall.
func (f *FTL) reclaimInline(at sim.Time) sim.Time {
	// Finish any in-flight incremental victim first: it is excluded from
	// victim selection, so its dead space is otherwise unreachable here.
	if f.gcVictim >= 0 {
		victim, from := f.gcVictim, f.gcCursor
		f.gcVictim = -1
		done, ok := f.reclaimVictim(at, victim, from)
		if ok {
			at = sim.Max(at, done)
		}
	}
	for f.freeZones.n <= inlineLowWater {
		victim := f.pickVictim()
		if victim < 0 {
			break
		}
		done, ok := f.reclaimVictim(at, victim, 0)
		if !ok {
			break
		}
		at = sim.Max(at, done)
	}
	return at
}

// reclaimVictim relocates and resets one victim under its dominant
// polluter's worker identity — the relocation and reset traffic's LUN and
// channel occupancy is owned by the culprit, so later arrivals' waits
// blame it — and records the culprit of the round's largest time advance
// for the triggering write's gc_stall blame charge.
func (f *FTL) reclaimVictim(at sim.Time, victim int, from int64) (sim.Time, bool) {
	c := f.dominantPolluter(victim)
	f.attr.PushWorker(c)
	done, ok := f.finishVictim(at, victim, from)
	f.attr.PopWorker()
	if ok {
		if adv := done - at; adv > f.gcTopAdv {
			f.gcTopAdv, f.lastCulprit = adv, c
		}
	}
	return done, ok
}

// pickVictim selects the non-open zone with the most dead (reclaimable)
// pages, or -1 if no zone has any. Requiring dead > 0 guarantees every
// relocation cycle makes net space progress, so reclamation terminates.
func (f *FTL) pickVictim() int {
	best := -1
	var bestDead int64
	for z := 0; z < f.dev.NumZones(); z++ {
		if f.isOpenForWriting(z) {
			continue
		}
		st := f.dev.State(z)
		if st == zns.Offline || st == zns.Empty || st == zns.ReadOnly {
			// ReadOnly zones cannot be reset; their capacity is stranded
			// until the zone is taken offline, so relocation would make no
			// space progress.
			continue
		}
		dead := f.dev.WP(z) - f.valid[z]
		if dead <= 0 {
			continue
		}
		if best < 0 || dead > bestDead {
			best, bestDead = z, dead
		}
	}
	return best
}

func (f *FTL) isOpenForWriting(z int) bool {
	if z == f.gcZone || z == f.gcVictim {
		return true
	}
	for _, zones := range f.streamZone {
		for _, sz := range zones {
			if sz == z {
				return true
			}
		}
	}
	return false
}

// finishVictim relocates the valid pages in [from, WP) of victim and resets
// it, returning the reset completion time.
func (f *FTL) finishVictim(at sim.Time, victim int, from int64) (sim.Time, bool) {
	wp := f.dev.WP(victim)
	done, ok := f.relocateRange(at, victim, from, wp)
	if !ok {
		return at, false
	}
	resetDone, err := f.dev.Reset(done, victim)
	if err != nil {
		return done, false
	}
	f.valid[victim] = 0
	f.clearDeadBy(victim)
	if f.dev.State(victim) == zns.Empty {
		f.freeZones.push(victim)
	}
	f.gcResets++
	f.mGCResets.Inc()
	f.fl.Record(at, telemetry.FlightReclaim, int32(victim), "", wp)
	f.tr.SpanArg(telemetry.ProcHostFTL, 0, "hostftl", "reclaim_victim", at, resetDone,
		"zone", int64(victim))
	return resetDone, true
}

// move is one deferred remap: the page at src now also lives at dst.
type move struct{ src, dst int64 }

// relocateRange moves the valid pages in [from, to) of victim into the GC
// zone, via simple copy or host read+write. It returns the completion time
// of the last relocation op.
func (f *FTL) relocateRange(at sim.Time, victim int, from, to int64) (sim.Time, bool) {
	if f.relocHook != nil {
		return f.relocHook(at, victim, from, to)
	}
	done := at
	if f.cfg.UseSimpleCopy {
		// Batch the valid LBAs and let the controller move them; no PCIe.
		batch := f.reloc.batch[:0]
		for o := from; o < to; o++ {
			src := f.dev.LBA(victim, o)
			if f.p2l[src] != unmapped {
				batch = append(batch, src)
			}
		}
		for len(batch) > 0 {
			if f.gcZone < 0 {
				z, ok := f.takeFreeZone()
				if !ok {
					return at, false
				}
				f.gcZone = z
			}
			room := f.dev.WritableCap(f.gcZone) - f.dev.WP(f.gcZone)
			n := int64(len(batch))
			if n > room {
				n = room
			}
			if n == 0 {
				f.gcZone = -1
				continue
			}
			first, cDone, err := f.dev.SimpleCopy(at, batch[:n], f.gcZone)
			if errors.Is(err, zns.ErrZoneReadOnly) {
				// The destination grew a bad block mid-copy; pages it
				// already absorbed are orphans (never remapped). Retry
				// the whole batch into a fresh zone.
				f.gcZone = -1
				continue
			}
			if err != nil {
				return at, false
			}
			for i := int64(0); i < n; i++ {
				f.remap(batch[i], first+i)
			}
			batch = batch[n:]
			done = sim.Max(done, cDone)
		}
		return done, true
	}

	// Host path: read each valid page over PCIe and append it back. The
	// remaps wait for the end of the range (flushRemaps): each is a random
	// store into tables far larger than any cache, and nothing below reads
	// what they write — except an evacuation, which appendTo flushes for.
	// Every return leaves the mapping complete, the early ones included.
	defer f.flushRemaps()
	for o := from; o < to; o++ {
		src := f.dev.LBA(victim, o)
		if f.p2l[src] == unmapped {
			continue
		}
		rDone, data, err := f.dev.Read(at, src)
		if err != nil {
			return at, false
		}
		dst, wDone, err := f.appendTo(rDone, &f.gcZone, data)
		if err != nil {
			return at, false
		}
		if f.recovery {
			// Relocation must carry the original stamp: the copy is the
			// same logical version, and recovery's newest-seq-wins scan
			// would otherwise resurrect stale data.
			lpn, seq := f.dev.OOB(src)
			f.dev.StampOOB(dst, lpn, seq)
		}
		f.reloc.moves = append(f.reloc.moves, move{src, dst})
		done = sim.Max(done, wDone)
	}
	return done, true
}

// flushRemaps applies the host relocation path's deferred remaps, in copy
// order. See DESIGN.md, "Relocation and the mapping tables".
func (f *FTL) flushRemaps() {
	for _, m := range f.reloc.moves {
		f.remap(m.src, m.dst)
	}
	f.reloc.moves = f.reloc.moves[:0]
}

// remap moves a live mapping from src to dst.
func (f *FTL) remap(src, dst int64) {
	lpn := f.p2l[src]
	if lpn == unmapped {
		return
	}
	if f.slotOwner != nil {
		// A relocated page keeps its writer: moving data does not launder
		// who polluted the zone it lands in next.
		f.slotOwner[dst] = f.slotOwner[src]
	}
	f.mRelocPages.Inc()
	sz, _ := f.dev.ZoneOf(src)
	dz, _ := f.dev.ZoneOf(dst)
	f.p2l[src] = unmapped
	f.valid[sz]--
	f.l2p[lpn] = int32(dst)
	f.p2l[dst] = lpn
	f.valid[dz]++
	f.remaps++
}

// reclaimChunk advances incremental reclamation by at most budget copied
// pages and at most one zone reset: it works through the current victim a
// chunk at a time and resets it when done. The work is issued at time at
// but never blocks the caller. The single-reset cap matters as much as the
// copy budget: a backlog of fully-dead zones costs no copies, and erasing
// them all in one call would park tens of milliseconds of erase work on
// the LUNs — exactly the tail spike this mode exists to avoid.
func (f *FTL) reclaimChunk(at sim.Time, budget, water int) {
	resets := 0
	for budget > 0 && resets == 0 && f.freeZones.n <= water {
		if f.gcVictim < 0 {
			v := f.pickVictim()
			if v < 0 {
				return
			}
			f.gcVictim, f.gcCursor = v, 0
			f.fl.Record(at, telemetry.FlightReclaim, int32(v), "incremental", f.valid[v])
		}
		wp := f.dev.WP(f.gcVictim)
		end := f.gcCursor + int64(budget)
		if end > wp {
			end = wp
		}
		// Count only valid pages against the budget.
		var validInRange int
		for o := f.gcCursor; o < end; o++ {
			if f.p2l[f.dev.LBA(f.gcVictim, o)] != unmapped {
				validInRange++
			}
		}
		// The chunk's relocation (and eventual reset) occupies LUNs on the
		// victim's dominant polluter's behalf.
		f.attr.PushWorker(f.dominantPolluter(f.gcVictim))
		rDone, ok := f.relocateRange(at, f.gcVictim, f.gcCursor, end)
		if !ok {
			f.attr.PopWorker()
			return
		}
		f.gcRelocDone = sim.Max(f.gcRelocDone, rDone)
		f.gcCursor = end
		budget -= validInRange
		if f.gcCursor >= wp {
			victim := f.gcVictim
			f.gcVictim = -1
			resetAt := at
			if f.recovery {
				// Crash-consistency barrier: the reset's erases must not be
				// issued before the relocated copies are durable, or a crash
				// in between destroys the only surviving version.
				resetAt = sim.Max(resetAt, f.gcRelocDone)
			}
			if _, err := f.dev.Reset(resetAt, victim); err == nil {
				f.valid[victim] = 0
				f.clearDeadBy(victim)
				if f.dev.State(victim) == zns.Empty {
					f.freeZones.push(victim)
				}
				f.gcResets++
				resets++
			}
		}
		f.attr.PopWorker()
	}
}
