package ftl

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/reclaim"
	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
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
// reach retireBlockPerPage through the twin's retireHook. Nor does the
// reference run the production copy path's other parts: it has its own
// allocPage, the linear scan over every frontier with cursors that grow
// without bound (production keeps its cursors in [0, LUNs) and jumps over
// empty host frontiers at the GC reserve), reached through the twin's
// allocHook from the production write path; its own copyPage, flash's
// CopyPage as it was, a ReadPage then a ProgramPage; and the loops' own
// mapping updates, which find a page's block by dividing.

// perPage is the reference twin: the device, with the reference's frontier
// cursors in place of the device's own.
type perPage struct {
	*Device
	rr   []int // per-stream round-robin cursor over LUNs
	gcRR int
}

func newPerPage(d *Device) *perPage {
	ref := &perPage{Device: d, rr: make([]int, len(d.rr))}
	d.allocHook = func(stream int, gc bool) (int, int, error) {
		ppn, err := ref.allocPage(stream, gc)
		return d.blockOf(ppn), d.pageOf(ppn), err
	}
	return ref
}

// allocPage is the parent's allocPage, verbatim.
//
// allocPage returns the next physical page on the rotating frontier set of
// the given stream, pulling fresh free blocks (least-erased first, for wear
// leveling) as frontiers fill. gc selects the GC frontier set when
// separation is on.
func (d *perPage) allocPage(stream int, gc bool) (int32, error) {
	fronts, cursor, host := d.hostFront[stream], &d.rr[stream], true
	if gc && d.cfg.HotColdSeparation {
		fronts, cursor, host = d.gcFront, &d.gcRR, false
	}
	luns := len(fronts)
	for try := 0; try < luns; try++ {
		lun := *cursor % luns
		*cursor++
		f := &fronts[lun]
		// A frontier that grew bad (failed program) or was sealed by crash
		// recovery no longer accepts programs; fall through and replace it.
		if f.block >= 0 && d.chip.WrittenPages(f.block) < d.pages &&
			!d.chip.IsBad(f.block) && !d.chip.IsSealed(f.block) {
			return d.ppn(f.block, d.chip.WrittenPages(f.block)), nil
		}
		if b, ok := d.takeFreeBlock(lun, gc); ok {
			d.moveFrontier(f, host, b)
			return d.ppn(b, 0), nil
		}
		// Full frontier and no replacement: drop the reference so the full
		// block becomes a GC candidate instead of being pinned forever.
		d.moveFrontier(f, host, -1)
	}
	return 0, ErrOutOfSpace
}

// copyPage is flash.Device.CopyPage as it was, a ReadPage then a
// ProgramPage, verbatim but for the device it runs on.
//
// CopyPage performs a controller-internal copy of one page: a read on the
// source LUN followed by a program on the destination LUN, moving data over
// the channel bus but never over the host interface.
func (d *perPage) copyPage(at sim.Time, srcBlock, srcPage, dstBlock, dstPage int) (sim.Time, error) {
	readDone, err := d.chip.ReadPage(at, srcBlock, srcPage)
	if err != nil {
		return at, err
	}
	done, err := d.chip.ProgramPage(readDone, dstBlock, dstPage)
	if err != nil {
		return done, err
	}
	if d.chip.RecoveryEnabled() {
		// A device-internal copy moves the page's spare area with it, so
		// the destination inherits the source's OOB stamp.
		lpn, seq := d.chip.OOB(srcBlock, srcPage)
		d.chip.StampOOB(dstBlock, dstPage, lpn, seq)
	}
	return done, nil
}

// retireBlockPerPage is the parent's retireBlock, verbatim.
//
// retireBlock handles a block the media just retired mid-workload (a failed
// program grew the bad-block set): the block is stripped from the frontier
// set, its now-unprogrammable slots are deducted from the free pool, and its
// valid pages — still readable on the grown-bad block — are migrated to
// fresh locations so the device no longer depends on marginal cells. A
// migration destination failing in turn joins the work list. Returns when
// the migration traffic completes.
func (d *perPage) retireBlockPerPage(at sim.Time, block int) sim.Time {
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
				done, cErr := d.copyPage(at, b, p, d.blockOf(dst), d.pageOf(dst))
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
func (d *perPage) relocatePerPage(at sim.Time, victim int, from int64, budget int) reclaim.Progress {
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
func (d *perPage) relocateAndErasePerPage(at sim.Time, victim int) reclaim.Progress {
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
			done, err := d.copyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
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
func (d *perPage) relocateChunkPerPage(at sim.Time, victim int, cursor int64, budget int) reclaim.Progress {
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
		cDone, err := d.copyPage(at, victim, p, d.blockOf(dst), d.pageOf(dst))
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
// flush points, and the production device's jump over empty host frontiers,
// were actually driven.
type relocTally struct {
	victims        int // relocate calls
	erases         int // ...that emptied their victim
	retires        int // retireBlock calls
	retiresInReloc int // ...of which from inside a victim's copy loop (flush before retireBlock)
	recoveries     int
	reserveAllocs  int // host allocations while the free pool sat at the GC reserve
	reserveTries   int // frontiers the reference's scans looked at for them
	skipped        int // ...that held no block: the production device jumps over these
	armedIOs       int // writes and reads bracketed by an armed probe on both twins
}

// relocRun is one differential run: an oracle configuration, plus an armed
// probe (attribution, critical paths, exemplars) on both twins, and how
// often the whole state is compared (every host call when 0).
type relocRun struct {
	oracleRun
	armed     bool
	fullEvery int64
}

// requireSameState fails unless the deferred-store device a and the per-page
// reference b are in the same state.
func requireSameState(t *testing.T, a *Device, b *perPage, when string) {
	t.Helper()
	if len(a.pending) != 0 {
		t.Fatalf("%s: %d l2p stores still pending after a host call", when, len(a.pending))
	}
	luns := a.geom.LUNs()
	for _, c := range []struct {
		name string
		same bool
	}{
		{"l2p", slices.Equal(a.gc.L2P, b.gc.L2P)},
		{"p2l", slices.Equal(a.gc.P2L, b.gc.P2L)},
		{"valid", slices.Equal(a.gc.Valid, b.gc.Valid)},
		{"owners", slices.Equal(a.gc.Owner, b.gc.Owner)},
		{"lastInval", slices.Equal(a.gc.LastKill, b.gc.LastKill)},
		{"freeBit", slices.Equal(a.freeBit, b.freeBit)},
		{"free pool order", slices.EqualFunc(a.freePerLUN, b.freePerLUN, slices.Equal[[]int])},
		{"host frontiers", slices.EqualFunc(a.hostFront, b.hostFront, slices.Equal[[]frontier])},
		{"gc frontiers", slices.Equal(a.gcFront, b.gcFront)},
		{"frontier cursors", slices.EqualFunc(a.rr, b.rr, func(x, y int) bool { return x == y%luns }) &&
			a.gcRR == b.gcRR%luns},
		{"victim index", sameIndex(a, b.Device)},
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
	for l := 0; l < luns; l++ { // block l sits on LUN l
		if a.chip.LUNFreeAt(l) != b.chip.LUNFreeAt(l) || a.chip.LUNBusy(l) != b.chip.LUNBusy(l) {
			t.Fatalf("%s: LUN %d timing differs", when, l)
		}
	}
	for st, words := range a.hostOpen {
		for w, word := range words {
			for bit := range 64 {
				lun, set := w*64+bit, word&(1<<bit) != 0
				if holds := lun < luns && a.hostFront[st][lun].block >= 0; set != holds {
					t.Fatalf("%s: stream %d LUN %d: open-frontier bit %v, frontier holds a block %v", when, st, lun, set, holds)
				}
			}
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

// sameTelemetry fails unless the twins' probes hold the same attribution
// aggregates, critical paths and exemplars.
func sameTelemetry(t *testing.T, a, b *telemetry.AttrSink, when string) {
	t.Helper()
	if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: attribution snapshots differ", when)
	}
	if sa, sb := critpath.FromSink(a).Snapshot(), critpath.FromSink(b).Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: critical-path snapshots differ", when)
	}
	if sa, sb := exemplar.FromSink(a).Snapshot(), exemplar.FromSink(b).Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: exemplar snapshots differ", when)
	}
	if v := a.Violations(); v != 0 {
		t.Fatalf("%s: %d attribution invariant violations", when, v)
	}
}

// runRelocTwins drives twin devices through prefill, skewed random overwrites
// with trims, a read beside each write, and (with recovery on) three
// crash/recover cycles, comparing them after every host call (the whole state
// every fullEvery calls), and the deferred-store twin's victim index against
// the scan oracle at every pick. It returns the deferred-store twin.
func runRelocTwins(t *testing.T, r relocRun, tally *relocTally) *Device {
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
	var sinks [2]*telemetry.AttrSink
	for i := range twins {
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		d.SetInjector(fault.New(prof, r.seed)) // each twin draws its own, identical, stream
		if r.armed {
			p := telemetry.NewProbe()
			p.FlightRec.DumpTo = io.Discard
			critpath.Attach(p.Attr, critpath.Options{})
			exemplar.Attach(p.Attr, exemplar.Options{})
			d.SetProbe(p)
			sinks[i] = p.Attr
		}
		twins[i] = d
	}
	a, b := twins[0], newPerPage(twins[1])
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
	// Host allocations at the GC reserve: the scan's tries are what its
	// unbounded cursor moved by, and the empty frontiers it passed are those
	// the production twin jumped over.
	refAlloc, empty := b.allocHook, make([]bool, r.geom.LUNs())
	b.allocHook = func(stream int, gc bool) (int, int, error) {
		if gc || b.freeCount > gcReserveBlocks {
			return refAlloc(stream, gc)
		}
		fronts, from := b.hostFront[stream], b.rr[stream]
		for l := range fronts {
			empty[l] = fronts[l].block < 0
		}
		blk, pg, err := refAlloc(stream, gc)
		tally.reserveAllocs++
		tally.reserveTries += b.rr[stream] - from
		for c := from; c < b.rr[stream]; c++ {
			if empty[c%len(fronts)] {
				tally.skipped++
			}
		}
		return blk, pg, err
	}

	n := a.CapacityPages()
	keys := workload.NewHotCold(workload.NewSource(r.seed), n, 0.2, 0.8)
	aux := workload.NewSource(r.seed + 1)
	fill, churn := int64(r.fill*float64(n)), int64(r.churn*float64(n))
	crashEvery := int64(-1)
	if r.recovery {
		crashEvery = churn / 4
	}
	fullEvery := max(r.fullEvery, 1)

	var at sim.Time
	ops := int64(0)
	// bracket runs op on both twins, inside a record on each when armed,
	// and fails unless they answer alike.
	bracket := func(kind telemetry.OpKind, name string, lpn int64, op func(d *Device) (sim.Time, error)) (sim.Time, error) {
		var done [2]sim.Time
		var errs [2]error
		for i, d := range twins {
			sinks[i].BeginTenant(kind, telemetry.TenantID(lpn%3), at)
			done[i], errs[i] = op(d)
			if errs[i] != nil {
				sinks[i].Drop()
			} else {
				sinks[i].End(done[i])
			}
		}
		if r.armed {
			tally.armedIOs++
		}
		if done[0] != done[1] || errs[0] != errs[1] {
			t.Fatalf("%v: op %d (%s lpn %d at t=%d): deferred-store device returned (%d, %v), per-page reference (%d, %v)",
				r, ops, name, lpn, at, done[0], errs[0], done[1], errs[1])
		}
		return done[0], errs[0]
	}
	write := func(lpn int64) bool {
		ops++
		stream := int(lpn % int64(r.streams))
		done, err := bracket(telemetry.OpWrite, "write", lpn, func(d *Device) (sim.Time, error) {
			return d.WritePageStream(at, lpn, stream, nil)
		})
		when := fmt.Sprintf("%v: op %d (write lpn %d at t=%d)", r, ops, lpn, at)
		if ops%fullEvery == 0 {
			requireSameState(t, a, b, when)
		}
		switch {
		case err == nil:
			at = done
		case r.profile == "none" && !r.recovery:
			t.Fatalf("%s: %v", when, err)
		case errors.Is(err, ErrOutOfSpace):
			return false // retired blocks ate the spare capacity; that ends the run
		}
		read := aux.Int63n(n)
		bracket(telemetry.OpRead, "read", read, func(d *Device) (sim.Time, error) {
			done, _, err := d.ReadPage(at, read)
			return done, err
		})
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
	requireSameState(t, a, b, r.String()+" at end")
	checkVictimIndex(t, a, r.String()+" at end")
	if r.armed {
		sameTelemetry(t, sinks[0], sinks[1], r.String()+" at end")
	}
	return a
}

// TestRelocationMatchesPerPage runs {greedy, hot/cold separation, streams,
// device-incremental} x {recovery off, on} x {perfect media, the aggressive
// fault profile, a lossy one} x seeds 42/7/13 on the toy device (the lossy
// runs on the 1-LUN one), then each configuration once more with a probe
// armed on both twins.
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
					runRelocTwins(t, relocRun{oracleRun: oracleRun{geom: geom, policy: Greedy, mode: c.mode,
						streams: c.streams, separate: c.separate, profile: profile,
						recovery: recovery, seed: seed, fill: 1, churn: 2}}, &tally)
				}
			}
		}
		// Armed: blame moves each copied page's writer with it, and every
		// flash op charges the open record.
		runRelocTwins(t, relocRun{oracleRun: oracleRun{geom: oracleToy, policy: Greedy, mode: c.mode,
			streams: c.streams, separate: c.separate, profile: "aggressive",
			recovery: true, seed: seeds[0], fill: 1, churn: 2}, armed: true}, &tally)
		t.Logf("%s: %+v", c.name, tally)
		if tally.erases == 0 || tally.recoveries == 0 || tally.retiresInReloc == 0 || tally.armedIOs == 0 {
			t.Errorf("%s: relocation, recovery, a retirement inside a victim's copy loop or an armed IO never ran: %+v", c.name, tally)
		}
	}
}

// TestRelocationMatchesPerPageFemu256 runs the twins at the benchmark's
// conventional shape (femu256, 7 % OP, hot/cold separation, one stream,
// foreground GC), armed, long enough that the free pool sits at the GC
// reserve, where host allocation jumps over empty frontiers.
func TestRelocationMatchesPerPageFemu256(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1 Mi-page twins: not under -short or -race")
	}
	var tally relocTally
	r := relocRun{oracleRun: oracleRun{geom: oracleFemu256, policy: Greedy, mode: GCForeground,
		streams: 1, separate: true, profile: "none", seed: 42, fill: 1, churn: 0.25},
		armed: true, fullEvery: 4096}
	d := runRelocTwins(t, r, &tally)
	open := 0
	for _, f := range d.hostFront[0] {
		if f.block >= 0 {
			open++
		}
	}
	t.Logf("%v: %+v; at the reserve, %.2f frontiers tried per host write; at the end, %d of %d host frontiers open, %d free blocks",
		r, tally, float64(tally.reserveTries)/float64(tally.reserveAllocs), open, len(d.hostFront[0]), d.freeCount)
	if tally.skipped == 0 {
		t.Errorf("%v: the pool never sat at the GC reserve with an empty host frontier to jump over: %+v", r, tally)
	}
}
