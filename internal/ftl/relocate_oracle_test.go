package ftl

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/workload"
)

// This file is the safety net for the deferred l2p stores in relocate (the
// copy loop both GC modes share) and retireBlock (gc.go): the loops they
// replaced, which re-point the mapping page by page, live on here as the
// reference, and twin devices — one running each — are compared after every
// host write. The contract is that deferral is invisible: same completion
// times, same tables, same free pool, same victim index, at every point a
// host call can observe.
//
// The functions below are copied from the commits before the deferral (and,
// for the chunk loop, before it merged into relocate); only their names and
// what the engine now does for them changed. Their calls to d.retireBlock
// reach retireBlockPerPage through the twin's retireHook.

// retireBlockPerPage is the parent's retireBlock, verbatim.
//
// retireBlock handles a block the media just retired mid-workload (a failed
// program grew the bad-block set): the block is stripped from the frontier
// set, its now-unprogrammable slots are deducted from the free pool, and its
// valid pages — still readable on the grown-bad block — are migrated to
// fresh locations so the device no longer depends on marginal cells. A
// migration destination failing in turn joins the work list. Returns when
// the migration traffic completes.
func (d *Device) retireBlockPerPage(at sim.Time, block int) sim.Time {
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
					d.gc.P2L[ppn] = unmapped
					d.gc.L2P[lpn] = unmapped
					d.decValid(b)
					break
				}
				at = sim.Max(at, done)
				d.consumeSlot(true)
				d.gc.P2L[ppn] = unmapped
				d.gc.L2P[lpn] = dst
				d.gc.P2L[dst] = lpn
				d.gc.Valid[d.blockOf(dst)]++
				d.decValid(b)
				if d.gc.Owner != nil {
					d.gc.Owner[dst] = d.gc.Owner[ppn]
				}
				d.counters.FlashReadPages++
				d.counters.FlashProgramPages++
				d.counters.GCCopyPages++
				break
			}
		}
	}
	return at
}

// relocatePerPage stands in for relocate, the copy loop both GC modes share,
// on the reference twin: whole victims run the parent's relocateAndErase up
// to its erase (which the engine now issues), chunks the parent's
// relocateChunk.
func (d *Device) relocatePerPage(at sim.Time, victim int, from int64, budget int) reclaim.Progress {
	if budget < 0 {
		return d.relocateAndErasePerPage(at, victim)
	}
	return d.relocateChunkPerPage(at, victim, from, budget)
}

// relocateAndErasePerPage is relocateAndErase as it was before the l2p
// stores were deferred, verbatim up to the erase; it returns what the erase
// needs.
//
// relocateAndErase copies the victim's valid pages forward, erases it, and
// returns it to the free pool. Copies are issued concurrently at time at and
// serialize per-LUN through the flash resource model; the erase queues
// behind the victim-LUN reads. Returns the erase completion time.
func (d *Device) relocateAndErasePerPage(at sim.Time, victim int) reclaim.Progress {
	// Refuse up front if the victim's survivors cannot fit in GC-reachable
	// space: a partial relocation would consume slots without freeing the
	// block, leaking space until reclamation deadlocks.
	if d.gc.Valid[victim] > d.gcSlots() {
		return reclaim.Progress{Issue: at, Done: at}
	}
	copied := d.counters.GCCopyPages
	var lastDone = at
	for p := 0; p < d.pages; p++ {
		ppn := d.ppn(victim, p)
		lpn := d.gc.P2L[ppn]
		if lpn == unmapped {
			continue
		}
		for {
			dst, err := d.allocPage(0, true)
			if err != nil {
				return reclaim.Progress{Issue: at, Done: at} // out of space mid-GC; caller surfaces ErrOutOfSpace
			}
			done, err := d.chip.CopyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
			if err == flash.ErrProgramFailed {
				// The destination went bad mid-GC: retire it (migrating
				// anything already copied into it) and retry this page.
				at = d.retireBlock(done, d.blockOf(dst))
				continue
			}
			if err == flash.ErrUncorrectable {
				// The victim page itself is unreadable after the retry
				// ladder: a detected loss. Drop the mapping rather than
				// strand reclamation on it.
				d.gc.P2L[ppn] = unmapped
				d.gc.L2P[lpn] = unmapped
				d.decValid(victim)
				break
			}
			if err != nil {
				return reclaim.Progress{Issue: at, Done: at}
			}
			if done > lastDone {
				lastDone = done
			}
			d.consumeSlot(true)
			// Re-point the mapping.
			d.gc.P2L[ppn] = unmapped
			d.gc.L2P[lpn] = dst
			d.gc.P2L[dst] = lpn
			d.gc.Valid[d.blockOf(dst)]++
			d.decValid(victim)
			if d.gc.Owner != nil {
				d.gc.Owner[dst] = d.gc.Owner[ppn]
			}
			d.counters.FlashReadPages++
			d.counters.FlashProgramPages++
			d.counters.GCCopyPages++
			break
		}
	}
	moved := d.counters.GCCopyPages - copied
	return reclaim.Progress{Next: int64(d.pages), Moved: int(moved), Issue: at, Done: lastDone, Empty: true, OK: true}
}

// relocateChunkPerPage is the incremental relocateChunk as it was before it
// shared relocate's deferred stores, verbatim but for the cursor, which the
// engine now holds, and a failed flag: the engine stops on it where the
// parent's loop stopped after a second call made no progress.
//
// relocateChunk copies up to budget valid pages of victim starting at the
// incremental cursor, returning how many were copied.
func (d *Device) relocateChunkPerPage(at sim.Time, victim int, cursor int64, budget int) reclaim.Progress {
	moved, done := 0, at
	failed := false
	for moved < budget && int(cursor) < d.pages {
		p := int(cursor)
		cursor++
		ppn := d.ppn(victim, p)
		lpn := d.gc.P2L[ppn]
		if lpn == unmapped {
			continue
		}
		dst, err := d.allocPage(0, true)
		if err != nil {
			cursor--
			failed = true
			break
		}
		cDone, err := d.chip.CopyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
		if err == flash.ErrProgramFailed {
			// Destination retired mid-chunk: clean it up and retry the page
			// on the next call (the cursor is rewound).
			at = d.retireBlock(cDone, d.blockOf(dst))
			cursor--
			continue
		}
		if err == flash.ErrUncorrectable {
			// Detected loss of the victim page; drop the mapping.
			d.gc.P2L[ppn] = unmapped
			d.gc.L2P[lpn] = unmapped
			d.decValid(victim)
			continue
		}
		if err != nil {
			cursor--
			failed = true
			break
		}
		done = sim.Max(done, cDone)
		d.consumeSlot(true)
		d.gc.P2L[ppn] = unmapped
		d.gc.L2P[lpn] = dst
		d.gc.P2L[dst] = lpn
		d.gc.Valid[d.blockOf(dst)]++
		d.decValid(victim)
		if d.gc.Owner != nil {
			d.gc.Owner[dst] = d.gc.Owner[ppn]
		}
		d.counters.FlashReadPages++
		d.counters.FlashProgramPages++
		d.counters.GCCopyPages++
		moved++
	}
	return reclaim.Progress{Next: cursor, Moved: moved, Issue: at, Done: done,
		Empty: int(cursor) >= d.pages, OK: !failed}
}

// decValid drops block's valid count by one, moving an indexed block down a
// bucket, as the reference loops did.
func (d *Device) decValid(block int) {
	d.gc.Valid[block]--
	d.gc.Add(block, -1)
}

// lossy is a fault profile for this test alone. With no retry ladder one read
// in twelve is uncorrectable, so the copy loops' loss branches run beside
// their program-failure ones; "aggressive" loses a read once in 10^14.
var lossy = fault.Profile{Name: "lossy", ReadTransientProb: 0.08, ProgramFailBase: 2e-3}

// relocTally sums what a set of runs exercised, so the test can insist the
// flush points were actually driven.
type relocTally struct {
	victims        int // relocate calls
	erases         int // ...that emptied their victim
	retires        int // retireBlock calls
	retiresInReloc int // ...of which from inside a victim's copy loop (flush before retireBlock)
	recoveries     int
}

// requireSameState fails unless the deferred-store device a and the per-page
// reference b are in the same state.
func requireSameState(t *testing.T, a, b *Device, when string) {
	t.Helper()
	if len(a.pending) != 0 {
		t.Fatalf("%s: %d l2p stores still pending after a host call", when, len(a.pending))
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"l2p", slices.Equal(a.gc.L2P, b.gc.L2P)},
		{"p2l", slices.Equal(a.gc.P2L, b.gc.P2L)},
		{"valid", slices.Equal(a.gc.Valid, b.gc.Valid)},
		{"lastInval", slices.Equal(a.gc.LastKill, b.gc.LastKill)},
		{"freeBit", slices.Equal(a.freeBit, b.freeBit)},
		{"free pool order", slices.EqualFunc(a.freePerLUN, b.freePerLUN, slices.Equal[[]int])},
		{"host frontiers", slices.EqualFunc(a.hostFront, b.hostFront, slices.Equal[[]frontier])},
		{"gc frontiers", slices.Equal(a.gcFront, b.gcFront)},
		{"frontier cursors", slices.Equal(a.rr, b.rr) && a.gcRR == b.gcRR},
		{"victim index", sameIndex(a, b)},
		{"free counts", a.freeCount == b.freeCount && a.freeSlots == b.freeSlots && a.hostResidual == b.hostResidual},
		{"incremental cursor", a.gc.Victim == b.gc.Victim && a.gc.Cursor == b.gc.Cursor && a.gc.RelocDone == b.gc.RelocDone},
		{"device counters", a.counters == b.counters && a.gcRuns == b.gcRuns && a.lastGCStall == b.lastGCStall && a.nextSeq == b.nextSeq},
		{"flash op counts", a.chip.Counts() == b.chip.Counts()},
		{"fault draws", a.chip.Injector().Counts() == b.chip.Injector().Counts()},
	} {
		if !c.same {
			t.Fatalf("%s: %s differ between the deferred-store device and the per-page reference", when, c.name)
		}
	}
	for l := 0; l < a.geom.LUNs(); l++ { // block l sits on LUN l
		if a.chip.LUNFreeAt(l) != b.chip.LUNFreeAt(l) || a.chip.LUNBusy(l) != b.chip.LUNBusy(l) {
			t.Fatalf("%s: LUN %d timing differs", when, l)
		}
	}
}

// sameIndex reports whether two devices' victim indexes hold the same blocks
// under the same keys.
func sameIndex(a, b *Device) bool {
	for blk := 0; blk < a.blocks; blk++ {
		ka, ma := a.gc.Key(blk)
		kb, mb := b.gc.Key(blk)
		if ma != mb || (ma && ka != kb) {
			return false
		}
	}
	return true
}

// runRelocTwins drives twin devices through prefill, skewed random overwrites
// with trims and (when armed) three crash/recover cycles, comparing them after
// every host call, and the deferred-store twin's victim index against the scan
// oracle at every pick.
func runRelocTwins(t *testing.T, r oracleRun, tally *relocTally) {
	t.Helper()
	prof, ok := fault.ProfileByName(r.profile)
	if r.profile == lossy.Name {
		prof, ok = lossy, true
	}
	if !ok {
		t.Fatalf("unknown fault profile %q", r.profile)
	}
	cfg := Config{
		Geom: r.geom, Lat: flash.LatenciesFor(flash.TLC),
		OPFraction: 0.07, GCPolicy: r.policy, GCMode: r.mode,
		GCChunkPages:      2, // completes victims in chunks and still falls behind into emergencies
		HotColdSeparation: r.separate, Streams: r.streams,
		TrimSupported: true, Recovery: r.recovery,
	}
	if r.profile != "none" {
		cfg.Endurance = 40 // low enough that wear-driven failures and ErrWornOut fire
	}
	var twins [2]*Device
	for i := range twins {
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		d.SetInjector(fault.New(prof, r.seed)) // each twin draws its own, identical, stream
		twins[i] = d
	}
	a, b := twins[0], twins[1]
	picks := 0
	a.gc.OnPick = func(at sim.Time, got int) {
		picks++
		if want := a.pickVictimScan(at); got != want {
			t.Fatalf("%v: pick %d at t=%d: index chose block %d, scan chose %d", r, picks, at, got, want)
		}
	}
	// The reference twin runs the per-page loops, and counts: the twins agree
	// call for call.
	inReloc := false
	b.gc.Copy = func(at sim.Time, victim int, from int64, budget int) reclaim.Progress {
		tally.victims++
		inReloc = true
		defer func() { inReloc = false }()
		p := b.relocatePerPage(at, victim, from, budget)
		if p.Empty {
			tally.erases++
		}
		return p
	}
	b.retireHook = func(at sim.Time, block int) sim.Time {
		tally.retires++
		if inReloc {
			tally.retiresInReloc++
		}
		return b.retireBlockPerPage(at, block)
	}

	n := a.CapacityPages()
	keys := workload.NewHotCold(workload.NewSource(r.seed), n, 0.2, 0.8)
	aux := workload.NewSource(r.seed + 1)
	fill, churn := int64(r.fill*float64(n)), int64(r.churn*float64(n))
	crashEvery := int64(-1)
	if r.recovery {
		crashEvery = churn / 4
	}

	var at sim.Time
	ops := 0
	write := func(lpn int64) bool {
		ops++
		stream := int(lpn % int64(r.streams))
		doneA, errA := a.WritePageStream(at, lpn, stream, nil)
		doneB, errB := b.WritePageStream(at, lpn, stream, nil)
		when := fmt.Sprintf("%v: op %d (write lpn %d at t=%d)", r, ops, lpn, at)
		if doneA != doneB || errA != errB {
			t.Fatalf("%s: deferred-store device returned (%d, %v), per-page reference (%d, %v)",
				when, doneA, errA, doneB, errB)
		}
		requireSameState(t, a, b, when)
		switch {
		case errA == nil:
			at = doneA
		case r.profile == "none" && !r.recovery:
			t.Fatalf("%s: %v", when, errA)
		case errors.Is(errA, ErrOutOfSpace):
			return false // retired blocks ate the spare capacity; that ends the run
		}
		return true
	}

	for lpn := int64(0); lpn < fill; lpn++ {
		if !write(lpn) {
			break
		}
	}
	checkVictimIndex(t, a, r.String()+" after prefill")
	for i := int64(1); i <= churn; i++ {
		if aux.Int63n(20) == 0 {
			lpn, cnt := aux.Int63n(n-8), 1+aux.Int63n(8)
			if err := errors.Join(a.Trim(at, lpn, cnt), b.Trim(at, lpn, cnt)); err != nil {
				t.Fatalf("%v: trim: %v", r, err)
			}
		} else if !write(keys.Next()) {
			break
		}
		if crashEvery > 0 && i%crashEvery == 0 && i < churn {
			crash := at - cfg.Lat.ProgramPage/2
			repA, errA := a.Recover(crash)
			repB, errB := b.Recover(crash)
			if errA != nil || errB != nil || repA != repB {
				t.Fatalf("%v: recovery at op %d: (%+v, %v) vs (%+v, %v)", r, i, repA, errA, repB, errB)
			}
			tally.recoveries++
			at = repA.RecoveredAt
			requireSameState(t, a, b, fmt.Sprintf("%v after recovery at op %d", r, i))
			checkVictimIndex(t, a, fmt.Sprintf("%v after recovery at op %d", r, i))
		}
	}
	checkVictimIndex(t, a, r.String()+" at end")
}

// TestRelocationMatchesPerPage runs {greedy, hot/cold separation, streams,
// device-incremental} x {recovery off, on} x {perfect media, the aggressive
// fault profile, a lossy one} x seeds 42/7/13 on the toy device (the lossy
// runs on the 1-LUN one).
func TestRelocationMatchesPerPage(t *testing.T) {
	seeds := []int64{42, 7, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range []struct {
		name     string
		mode     GCMode
		streams  int
		separate bool
	}{{"greedy", GCForeground, 1, false}, {"hot-cold", GCForeground, 1, true}, {"streams", GCForeground, 4, true},
		{"incremental", GCDeviceIncremental, 1, true}, {"incremental-streams", GCDeviceIncremental, 4, false}} {
		var tally relocTally
		for _, recovery := range []bool{false, true} {
			for _, profile := range []string{"none", "aggressive", lossy.Name} {
				for _, seed := range seeds {
					geom := oracleToy
					if profile == lossy.Name {
						// One LUN: a victim's copies all land in one block, so
						// a destination that fails holds pages whose stores
						// are still pending, and retiring it loses some.
						geom = oracleDegenerate
					}
					runRelocTwins(t, oracleRun{geom: geom, policy: Greedy, mode: c.mode,
						streams: c.streams, separate: c.separate, profile: profile,
						recovery: recovery, seed: seed, fill: 1, churn: 2}, &tally)
				}
			}
		}
		t.Logf("%s: %+v", c.name, tally)
		if tally.erases == 0 || tally.recoveries == 0 || tally.retiresInReloc == 0 {
			t.Errorf("%s: relocation, recovery or a retirement inside a victim's copy loop never ran: %+v", c.name, tally)
		}
	}
}
