package hostftl

import (
	"errors"

	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
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
	if f.freeZones.Len() > targetFree {
		return false
	}
	before, beforeFree := f.gcResets, f.freeZones.Len()
	f.gc.Chunk(at, budget)
	return f.gcResets != before || f.freeZones.Len() != beforeFree || f.gc.Victim >= 0
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
	f.gc.NewRound()
	switch {
	case f.cfg.GCMode != GCIncremental:
		if f.freeZones.Len() > inlineLowWater {
			return at
		}
	case f.freeZones.Len() <= 1:
		// Emergency: the pool is dry; fall back to a blocking pass.
		f.emergencies++
	default:
		if f.freeZones.Len() <= incrementalStartWater {
			f.gc.Chunk(at, f.cfg.GCChunkPages)
		}
		return at
	}
	// Inline passes relocate whole victims until the pool recovers, after
	// finishing any victim a MaintenanceStep left in flight.
	return f.gc.Emergency(at, f.poolLow)
}

// poolLow is the inline trigger: the free pool at its low-water mark.
func (f *FTL) poolLow() bool { return f.freeZones.Len() <= inlineLowWater }

// release empties an open-zone slot; the zone it held becomes a victim
// candidate.
func (f *FTL) release(slot *int) {
	f.enter(*slot)
	*slot = -1
}

// enter adds zone z to the victim index, keyed by its live pages plus its
// unwritten tail, if it can be reset: ReadOnly zones cannot, so relocating
// one would make no space progress.
func (f *FTL) enter(z int) {
	if st := f.dev.State(z); st != zns.Offline && st != zns.Empty && st != zns.ReadOnly {
		f.gc.Insert(z, int(f.zonePages-f.dev.WP(z)+f.gc.Valid[z]))
	}
}

// relocate is the host stack's copy loop (reclaim.Engine.Copy). A chunk
// covers budget victim offsets (the whole zone when budget < 0) and counts
// only their valid pages against the budget. A whole zone resets once its
// relocation completes.
func (f *FTL) relocate(at sim.Time, victim int, from int64, budget int) reclaim.Progress {
	end := f.dev.WP(victim)
	if budget >= 0 && from+int64(budget) < end {
		end = from + int64(budget)
	}
	p := reclaim.Progress{Next: from}
	p.Done, p.Moved, p.OK = f.relocateRange(at, victim, from, end)
	p.Issue = p.Done
	if p.OK {
		p.Next, p.Empty = end, end >= f.dev.WP(victim)
	}
	return p
}

// reset is the host stack's erase (reclaim.Engine.Erase): the zone resets
// and rejoins the free pool unless wear took it offline. (A victim is never
// ReadOnly or Offline, the states a reset refuses.)
func (f *FTL) reset(at sim.Time, victim int) sim.Time {
	done, err := f.dev.Reset(at, victim)
	if err != nil {
		return done
	}
	if f.dev.State(victim) == zns.Empty {
		f.freeZones.Push(victim)
	}
	f.gcResets++
	return done
}

// move is one deferred remap: the page at src now also lives at dst.
type move struct{ src, dst int64 }

// relocateRange moves the valid pages in [from, to) of victim into the GC
// zone, via simple copy or host read+write. It returns the completion time
// of the last relocation op and how many pages it moved.
func (f *FTL) relocateRange(at sim.Time, victim int, from, to int64) (done sim.Time, moved int, ok bool) {
	if f.relocHook != nil {
		return f.relocHook(at, victim, from, to)
	}
	done = at
	if f.cfg.UseSimpleCopy {
		// Batch the valid LBAs and let the controller move them; no PCIe.
		batch := f.reloc.batch[:0]
		for o := from; o < to; o++ {
			src := f.dev.LBA(victim, o)
			if f.gc.P2L[src] != unmapped {
				batch = append(batch, src)
			}
		}
		moved = len(batch)
		for len(batch) > 0 {
			if f.gcZone < 0 {
				z, ok := f.freeZones.Take(f.dev)
				if !ok {
					return at, 0, false
				}
				f.gcZone = z
			}
			room := f.dev.WritableCap(f.gcZone) - f.dev.WP(f.gcZone)
			n := min(int64(len(batch)), room)
			if n == 0 {
				f.release(&f.gcZone)
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
				return at, 0, false
			}
			for i := int64(0); i < n; i++ {
				f.remap(batch[i], first+i)
			}
			batch = batch[n:]
			done = sim.Max(done, cDone)
		}
		return done, moved, true
	}

	// Host path: read each valid page over PCIe and append it back. The
	// remaps wait for the end of the range (flushRemaps): each is a random
	// store into tables far larger than any cache, and nothing below reads
	// what they write — except an evacuation, which appendTo flushes for.
	// Every return leaves the mapping complete, the early ones included.
	defer f.flushRemaps()
	for o := from; o < to; o++ {
		src := f.dev.LBA(victim, o)
		if f.gc.P2L[src] == unmapped {
			continue
		}
		rDone, data, err := f.dev.Read(at, src)
		if err != nil {
			return at, 0, false
		}
		dst, wDone, err := f.appendTo(rDone, &f.gcZone, data)
		if err != nil {
			return at, 0, false
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
		moved++
	}
	return done, moved, true
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
	lpn := f.gc.P2L[src]
	if lpn == unmapped {
		return
	}
	f.gc.Move(lpn, int32(src), int32(dst), int(src/f.zonePages), int(dst/f.zonePages))
	f.gc.L2P[lpn] = int32(dst)
	f.remaps++
}
