package ftl

import (
	"blockhead/internal/flash"
	"blockhead/internal/reclaim"
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
// starts earlier, at twice the low-water mark, and relocates a small chunk
// per host write, so stalls shrink — but the device still cannot know data
// lifetimes, so its write amplification (and the DRAM/OP hardware costs) are
// unchanged. If the pool still drains to half the mark, it falls back to one
// blocking emergency pass. Ablation A5 quantifies exactly how much of the
// paper's tail argument survives this generosity.
func (d *Device) maybeGC(at sim.Time) sim.Time {
	// Relocations fan out across LUNs concurrently; per-copy attribution
	// would double-count overlapped time, so the sink is suspended and the
	// caller charges the host-visible stall (how far `at` advanced) instead.
	d.attr.Suspend()
	defer d.attr.Resume()
	// Blame for the triggering write's gc_stall charge is gathered per round
	// (forceGC extends the same round).
	d.gc.NewRound()
	d.lastGCStall = 0
	slots, start := d.hostSlots(), at
	switch {
	case d.cfg.GCMode == GCForeground:
		if slots > d.thresholdSlots {
			return at
		}
		at = d.gc.Foreground(at, d.slotsLow)
	case slots > 2*d.thresholdSlots:
		return at
	case slots <= d.thresholdSlots/2:
		at = d.gc.Emergency(at, d.slotsLow)
	default:
		d.gc.Chunk(at, d.cfg.GCChunkPages)
		return at
	}
	d.lastGCStall = at - start
	return at
}

// slotsLow is GC's trigger: host-reachable slots at or below the low-water
// mark.
func (d *Device) slotsLow() bool { return d.hostSlots() <= d.thresholdSlots }

// poolLow is forceGC's: too few free blocks for a host allocation.
func (d *Device) poolLow() bool { return d.freeCount <= gcReserveBlocks+1 }

// forceGC reclaims until the free pool can serve a host block allocation
// (or no victim remains). It backs the allocation-retry path: with many
// write streams, one stream's frontiers can be empty while the aggregate
// hostSlots figure still looks healthy, so the regular trigger never fired.
func (d *Device) forceGC(at sim.Time) sim.Time {
	d.attr.Suspend()
	defer d.attr.Resume()
	return d.gc.Foreground(at, d.poolLow)
}

// hostSlots reports the page slots reachable by host allocation: free
// blocks above the GC reserve plus residual space in the host frontiers.
// GC triggers on this quantity — space parked in GC frontiers cannot serve
// host writes, so counting it would let the device run dry (§2.4's opaque
// foreground GC is bad enough without deadlocking).
func (d *Device) hostSlots() int64 {
	return int64(max(d.freeCount-gcReserveBlocks, 0))*int64(d.pages) + d.hostResidual
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
		d.fl.Record(at, telemetry.FlightFault, int32(b), "ftl_retire", d.gc.Valid[b])
		for p := 0; p < d.chip.WrittenPages(b); p++ {
			ppn := d.ppn(b, p)
			lpn := d.gc.P2L[ppn]
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
					d.gc.Drop(lpn, ppn)
					break
				}
				at = sim.Max(at, done)
				d.copied(ppn, lpn, dst)
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
		d.gc.L2P[s.lpn] = s.ppn
	}
	d.pending = d.pending[:0]
}

// copied re-points lpn from ppn to dst once a relocation copy has succeeded;
// the l2p store waits for flushL2P.
func (d *Device) copied(ppn, lpn, dst int32) {
	d.consumeSlot(true)
	d.gc.Move(lpn, ppn, dst)
	d.pending = append(d.pending, l2pStore{lpn, dst})
	d.counters.FlashReadPages++
	d.counters.FlashProgramPages++
	d.counters.GCCopyPages++
}

// relocate is the conventional stack's copy loop (reclaim.Engine.Copy): it
// copies victim's valid pages from page from on — at most budget of them, or
// all when budget < 0 — into the GC frontiers. Copies are issued
// concurrently and serialize per LUN through the flash resource model.
func (d *Device) relocate(at sim.Time, victim int, from int64, budget int) reclaim.Progress {
	p := reclaim.Progress{Next: from, Issue: at, Done: at}
	// Refuse a whole victim up front if its survivors cannot fit in
	// GC-reachable space: a partial relocation would consume slots without
	// freeing the block, leaking space until reclamation deadlocks.
	if budget < 0 && d.gc.Valid[victim] > d.gcSlots() {
		return p
	}
	// Every return below leaves l2p complete, the early ones included.
	defer d.flushL2P()
	for ; p.Next < int64(d.pages) && p.Moved != budget; p.Next++ {
		page := int(p.Next)
		ppn := d.ppn(victim, page)
		lpn := d.gc.P2L[ppn]
		if lpn == unmapped {
			continue
		}
		dst, err := d.allocPage(0, true)
		if err != nil {
			return p // out of space mid-GC; the caller surfaces ErrOutOfSpace
		}
		done, err := d.chip.CopyPage(p.Issue, victim, page, d.blockOf(dst), d.pageOf(dst))
		switch err {
		case nil:
		case flash.ErrProgramFailed:
			// The destination went bad mid-GC: retire it (migrating anything
			// already copied into it, so their l2p entries must be in place
			// first) and retry this page.
			d.flushL2P()
			p.Issue = d.retireBlock(done, d.blockOf(dst))
			p.Next--
			continue
		case flash.ErrUncorrectable:
			// The victim page itself is unreadable after the retry ladder: a
			// detected loss. Drop the mapping rather than strand reclamation
			// on it. (No deferred store names this lpn: one is queued only
			// once a page's copy has succeeded.)
			d.gc.Drop(lpn, ppn)
			continue
		default:
			return p
		}
		p.Done = sim.Max(p.Done, done)
		d.copied(ppn, lpn, dst)
		p.Moved++
	}
	p.Empty, p.OK = p.Next >= int64(d.pages), true
	return p
}

// erase is the conventional stack's erase (reclaim.Engine.Erase): the block
// returns to the free pool, or, if the erase fails (ErrWornOut, or a failed
// erase), it is retired and its capacity is permanently lost — out of the
// free pool and out of freeSlots.
func (d *Device) erase(at sim.Time, victim int) sim.Time {
	d.gcRuns++
	done, err := d.chip.EraseBlock(at, victim)
	if err != nil {
		return 0
	}
	d.counters.BlockErases++
	d.freeSlots += int64(d.pages)
	d.addFree(victim)
	return done
}
