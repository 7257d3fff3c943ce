package ftl

import (
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// maybeGC runs garbage collection per the configured scheduling mode and
// returns the time at which the triggering host write may proceed.
//
// GCForeground is the device-opaque behavior the paper blames for read
// tail latency (§2.4): when the low-water mark trips, the triggering write
// stalls behind whole-victim relocations and erases, and every copy
// occupies LUNs that host I/O also needs.
//
// GCDeviceIncremental is the kindest plausible on-board controller: it
// starts earlier and relocates a small chunk per host write, so stalls
// shrink — but the device still cannot know data lifetimes, so its write
// amplification (and the DRAM/OP hardware costs) are unchanged. Ablation
// A5 quantifies exactly how much of the paper's tail argument survives
// this generosity.
func (d *Device) maybeGC(at sim.Time) sim.Time {
	// Relocations fan out across LUNs concurrently; per-copy attribution
	// would double-count overlapped time, so the sink is suspended and the
	// caller charges the host-visible stall (how far `at` advanced) instead.
	d.attr.Suspend()
	defer d.attr.Resume()
	// Blame bookkeeping for the triggering write's gc_stall charge: the
	// culprit is the dominant polluter of the victim whose reclamation
	// advanced time the most in this round (forceGC extends the same round).
	d.lastGCCulprit = telemetry.SelfTenant
	d.gcTopAdv = 0
	if d.cfg.GCMode == GCDeviceIncremental {
		return d.incrementalGC(at)
	}
	if d.hostSlots() > d.thresholdSlots {
		d.lastGCStall = 0
		return at
	}
	start := at
	for d.hostSlots() <= d.thresholdSlots {
		victim := d.pickVictim(at)
		if victim < 0 {
			break
		}
		done, ok := d.reclaimVictim(at, victim)
		if !ok {
			break
		}
		at = sim.Max(at, done)
	}
	d.lastGCStall = at - start
	if d.lastGCStall > 0 {
		d.hGCStall.Observe(d.lastGCStall)
		d.tr.Span(telemetry.ProcFTL, 0, "ftl", "gc_foreground_stall", start, at)
	}
	return at
}

// incrementalGC relocates at most GCChunkPages valid pages (and at most one
// erase) per call, starting when free slots fall below twice the low-water
// mark. If the pool still drains to the mark itself, it falls back to one
// blocking foreground pass.
func (d *Device) incrementalGC(at sim.Time) sim.Time {
	d.lastGCStall = 0
	slots := d.hostSlots()
	if slots > 2*d.thresholdSlots {
		return at
	}
	if slots <= d.thresholdSlots/2 {
		// Fell behind: one emergency foreground pass (stall visible).
		// Finish the in-flight incremental victim first; it is excluded
		// from victim selection, so its dead space is otherwise stranded.
		start := at
		if d.gcVictim >= 0 {
			v := d.gcVictim
			d.gcVictim = -1
			if done, ok := d.reclaimVictim(at, v); ok {
				at = sim.Max(at, done)
			}
		}
		for d.hostSlots() <= d.thresholdSlots {
			victim := d.pickVictim(at)
			if victim < 0 {
				break
			}
			done, ok := d.reclaimVictim(at, victim)
			if !ok {
				break
			}
			at = sim.Max(at, done)
		}
		d.lastGCStall = at - start
		if d.lastGCStall > 0 {
			d.hGCStall.Observe(d.lastGCStall)
			d.tr.Span(telemetry.ProcFTL, 0, "ftl", "gc_emergency_stall", start, at)
		}
		return at
	}
	budget := d.cfg.GCChunkPages
	erased := false
	for budget > 0 && !erased {
		if d.gcVictim < 0 {
			v := d.pickVictim(at)
			if v < 0 {
				return at
			}
			d.gcVictim, d.gcCursor = v, 0
			d.fl.Record(at, telemetry.FlightGCVictim, int32(v), "incremental", d.valid[v])
		}
		// The chunk's relocation (and eventual erase) occupies LUNs on the
		// victim's dominant polluter's behalf.
		d.attr.PushWorker(d.dominantPolluter(d.gcVictim))
		moved, done := d.relocateChunk(at, d.gcVictim, budget)
		// Chunk work proceeds concurrently; the write is not gated. The
		// high-water mark of relocation completions is kept only for the
		// crash-consistency barrier below.
		d.gcRelocDone = sim.Max(d.gcRelocDone, done)
		budget -= moved
		if int(d.gcCursor) >= d.pages {
			victim := d.gcVictim
			d.gcVictim = -1
			d.mGCVictims.Inc()
			eraseAt := at
			if d.cfg.Recovery {
				// Crash-consistency barrier: with power loss in the model,
				// the erase must not be issued before the relocated copies
				// are durable, or a crash in between destroys the only
				// surviving version.
				eraseAt = sim.Max(eraseAt, d.gcRelocDone)
			}
			d.indexRemove(victim) // erased or retired: out of circulation either way
			d.valid[victim] = 0
			if _, err := d.chip.EraseBlock(eraseAt, victim); err == nil {
				d.counters.BlockErases++
				d.freeSlots += int64(d.pages)
				d.addFree(victim)
				d.gcRuns++
			}
			d.clearDeadBy(victim)
			erased = true
		}
		d.attr.PopWorker()
		if moved == 0 && !erased {
			return at // no progress possible right now
		}
	}
	return at
}

// clearDeadBy resets a block's per-tenant death counts once the block
// leaves circulation (erased back to the free pool, or retired).
func (d *Device) clearDeadBy(block int) {
	if d.deadBy != nil {
		d.deadBy[block] = [telemetry.MaxTenants]int32{}
	}
}

// relocateChunk copies up to budget valid pages of victim starting at the
// incremental cursor, returning how many were copied.
func (d *Device) relocateChunk(at sim.Time, victim, budget int) (moved int, done sim.Time) {
	done = at
	for moved < budget && int(d.gcCursor) < d.pages {
		p := int(d.gcCursor)
		d.gcCursor++
		ppn := d.ppn(victim, p)
		lpn := d.p2l[ppn]
		if lpn == unmapped {
			continue
		}
		dst, err := d.allocPage(0, true)
		if err != nil {
			d.gcCursor--
			return moved, done
		}
		cDone, err := d.chip.CopyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
		if err == flash.ErrProgramFailed {
			// Destination retired mid-chunk: clean it up and retry the page
			// on the next call (the cursor is rewound).
			at = d.retireBlock(cDone, d.blockOf(dst))
			d.gcCursor--
			continue
		}
		if err == flash.ErrUncorrectable {
			// Detected loss of the victim page; drop the mapping.
			d.p2l[ppn] = unmapped
			d.l2p[lpn] = unmapped
			d.decValid(victim)
			continue
		}
		if err != nil {
			d.gcCursor--
			return moved, done
		}
		done = sim.Max(done, cDone)
		d.consumeSlot(true)
		d.p2l[ppn] = unmapped
		d.l2p[lpn] = dst
		d.p2l[dst] = lpn
		d.valid[d.blockOf(dst)]++
		d.decValid(victim)
		if d.pageOwner != nil {
			d.pageOwner[dst] = d.pageOwner[ppn]
		}
		d.counters.FlashReadPages++
		d.counters.FlashProgramPages++
		d.counters.GCCopyPages++
		d.mGCCopies.Inc()
		moved++
	}
	return moved, done
}

// forceGC reclaims until the free pool can serve a host block allocation
// (or no victim remains). It backs the allocation-retry path: with many
// write streams, one stream's frontiers can be empty while the aggregate
// hostSlots figure still looks healthy, so the regular trigger never fired.
func (d *Device) forceGC(at sim.Time) sim.Time {
	d.attr.Suspend()
	defer d.attr.Resume()
	d.mGCForced.Inc()
	for d.freeCount <= gcReserveBlocks+1 {
		victim := d.pickVictim(at)
		if victim < 0 {
			break
		}
		done, ok := d.reclaimVictim(at, victim)
		if !ok {
			break
		}
		at = sim.Max(at, done)
	}
	return at
}

// reclaimVictim relocates and erases one victim under its dominant
// polluter's worker identity — the relocation traffic's LUN and channel
// occupancy is owned by the culprit, so later arrivals' waits blame it —
// and records the culprit of the round's largest time advance for the
// triggering write's gc_stall blame charge.
func (d *Device) reclaimVictim(at sim.Time, victim int) (sim.Time, bool) {
	c := d.dominantPolluter(victim)
	d.attr.PushWorker(c)
	done, ok := d.relocateAndErase(at, victim)
	d.attr.PopWorker()
	if ok {
		if adv := done - at; adv > d.gcTopAdv {
			d.gcTopAdv, d.lastGCCulprit = adv, c
		}
	}
	return done, ok
}

// hostSlots reports the page slots reachable by host allocation: free
// blocks above the GC reserve plus residual space in the host frontiers.
// GC triggers on this quantity — space parked in GC frontiers cannot serve
// host writes, so counting it would let the device run dry (§2.4's opaque
// foreground GC is bad enough without deadlocking).
func (d *Device) hostSlots() int64 {
	free := int64(d.freeCount - gcReserveBlocks)
	if free < 0 {
		free = 0
	}
	return free*int64(d.pages) + d.hostResidual
}

// gcSlots reports the page slots reachable by GC allocation: free blocks
// plus residual space in the GC frontier set (or the shared frontiers when
// hot/cold separation is off).
func (d *Device) gcSlots() int64 {
	slots := int64(d.freeCount) * int64(d.pages)
	if d.cfg.HotColdSeparation {
		for i := range d.gcFront {
			if b := d.gcFront[i].block; b >= 0 {
				slots += int64(d.pages - d.chip.WrittenPages(b))
			}
		}
		return slots
	}
	return slots + d.hostResidual
}

// dropFrontier removes block from every open frontier reference.
func (d *Device) dropFrontier(block int) {
	for _, fronts := range d.hostFront {
		for i := range fronts {
			if fronts[i].block == block {
				d.moveFrontier(&fronts[i], true, -1)
			}
		}
	}
	for i := range d.gcFront {
		if d.gcFront[i].block == block {
			d.moveFrontier(&d.gcFront[i], false, -1)
		}
	}
}

// retireBlock handles a block the media just retired mid-workload (a failed
// program grew the bad-block set): the block is stripped from the frontier
// set, its now-unprogrammable slots are deducted from the free pool, and its
// valid pages — still readable on the grown-bad block — are migrated to
// fresh locations so the device no longer depends on marginal cells. A
// migration destination failing in turn joins the work list. Returns when
// the migration traffic completes.
func (d *Device) retireBlock(at sim.Time, block int) sim.Time {
	if d.retireHook != nil {
		return d.retireHook(at, block)
	}
	// Migration copies fan out like GC; per-copy attribution would
	// double-count, so the caller charges the host-visible stall instead.
	d.attr.Suspend()
	defer d.attr.Resume()
	work := []int{block}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		d.dropFrontier(b)
		d.freeSlots -= int64(d.pages - d.chip.WrittenPages(b))
		d.fl.Record(at, telemetry.FlightFault, int32(b), "ftl_retire", d.valid[b])
		for p := 0; p < d.chip.WrittenPages(b); p++ {
			ppn := d.ppn(b, p)
			lpn := d.p2l[ppn]
			if lpn == unmapped {
				continue
			}
			for {
				dst, err := d.allocPage(0, true)
				if err != nil {
					// No GC-reachable space to migrate into: the page stays
					// mapped on the retired block, which remains readable.
					break
				}
				done, cErr := d.chip.CopyPage(at, b, p, d.blockOf(dst), d.pageOf(dst))
				if cErr == flash.ErrProgramFailed {
					work = append(work, d.blockOf(dst))
					continue
				}
				if cErr != nil {
					// Uncorrectable source read: a detected loss; drop the
					// mapping.
					d.p2l[ppn] = unmapped
					d.l2p[lpn] = unmapped
					d.decValid(b)
					break
				}
				at = sim.Max(at, done)
				d.consumeSlot(true)
				d.p2l[ppn] = unmapped
				d.pending = append(d.pending, l2pStore{lpn, dst})
				d.p2l[dst] = lpn
				d.valid[d.blockOf(dst)]++
				d.decValid(b)
				if d.pageOwner != nil {
					d.pageOwner[dst] = d.pageOwner[ppn]
				}
				d.counters.FlashReadPages++
				d.counters.FlashProgramPages++
				d.counters.GCCopyPages++
				break
			}
		}
		// Per block, not per call: a destination that failed above is scanned
		// later in this loop, and re-migrating a page must find (and then
		// overwrite) the l2p entry its first move made.
		d.flushL2P()
	}
	return at
}

// flushL2P applies relocation's deferred l2p stores. The copy loops defer the
// one table update nothing inside them reads — l2p[lpn] = dst is a random
// store into a table far larger than any cache, and issuing a block's worth
// back to back lets the misses overlap instead of each stalling the next
// page's device calls. p2l, valid and the victim index are updated in place:
// the loops read them. See DESIGN.md, "Relocation and the mapping tables".
func (d *Device) flushL2P() {
	for _, s := range d.pending {
		d.l2p[s.lpn] = s.ppn
	}
	d.pending = d.pending[:0]
}

// relocateAndErase copies the victim's valid pages forward, erases it, and
// returns it to the free pool. Copies are issued concurrently at time at and
// serialize per-LUN through the flash resource model; the erase queues
// behind the victim-LUN reads. Returns the erase completion time.
func (d *Device) relocateAndErase(at sim.Time, victim int) (sim.Time, bool) {
	if d.relocHook != nil {
		return d.relocHook(at, victim)
	}
	// Refuse up front if the victim's survivors cannot fit in GC-reachable
	// space: a partial relocation would consume slots without freeing the
	// block, leaking space until reclamation deadlocks.
	if d.valid[victim] > d.gcSlots() {
		return at, false
	}
	// Every return below leaves l2p complete, the early ones included.
	defer d.flushL2P()
	copied := d.counters.GCCopyPages
	var lastDone = at
	for p := 0; p < d.pages; p++ {
		ppn := d.ppn(victim, p)
		lpn := d.p2l[ppn]
		if lpn == unmapped {
			continue
		}
		for {
			dst, err := d.allocPage(0, true)
			if err != nil {
				return at, false // out of space mid-GC; caller surfaces ErrOutOfSpace
			}
			done, err := d.chip.CopyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
			if err == flash.ErrProgramFailed {
				// The destination went bad mid-GC: retire it (migrating
				// anything already copied into it, so their l2p entries
				// must be in place first) and retry this page.
				d.flushL2P()
				at = d.retireBlock(done, d.blockOf(dst))
				continue
			}
			if err == flash.ErrUncorrectable {
				// The victim page itself is unreadable after the retry
				// ladder: a detected loss. Drop the mapping rather than
				// strand reclamation on it. (No deferred store names this
				// lpn: one is queued only once a page's copy has succeeded.)
				d.p2l[ppn] = unmapped
				d.l2p[lpn] = unmapped
				d.decValid(victim)
				break
			}
			if err != nil {
				return at, false
			}
			if done > lastDone {
				lastDone = done
			}
			d.consumeSlot(true)
			// Re-point the mapping; the l2p store waits for flushL2P.
			d.p2l[ppn] = unmapped
			d.pending = append(d.pending, l2pStore{lpn, dst})
			d.p2l[dst] = lpn
			d.valid[d.blockOf(dst)]++
			d.decValid(victim)
			if d.pageOwner != nil {
				d.pageOwner[dst] = d.pageOwner[ppn]
			}
			d.counters.FlashReadPages++
			d.counters.FlashProgramPages++
			d.counters.GCCopyPages++
			break
		}
	}

	d.gcRuns++
	d.mGCVictims.Inc()
	d.fl.Record(at, telemetry.FlightGCVictim, int32(victim), "", int64(d.counters.GCCopyPages-copied))
	d.mGCCopies.Add(d.counters.GCCopyPages - copied)
	d.tr.SpanArg(telemetry.ProcFTL, 0, "ftl", "gc_relocate", at, lastDone,
		"victim", int64(victim))
	eraseAt := at
	if d.cfg.Recovery {
		// Crash-consistency barrier: never issue the erase before the
		// relocated copies are durable (a crash in between would destroy
		// the only surviving version of the victim's live pages).
		eraseAt = sim.Max(eraseAt, lastDone)
	}
	d.clearDeadBy(victim) // the block leaves circulation either way below
	d.indexRemove(victim)
	d.valid[victim] = 0
	eraseDone, err := d.chip.EraseBlock(eraseAt, victim)
	if err != nil {
		// ErrWornOut: the block is retired and its capacity is permanently
		// lost (it stays out of the free pool and out of freeSlots). Any
		// other error is a bug; either way the block is not reusable.
		return lastDone, true
	}
	d.counters.BlockErases++
	d.freeSlots += int64(d.pages)
	d.addFree(victim)
	return sim.Max(lastDone, eraseDone), true
}
