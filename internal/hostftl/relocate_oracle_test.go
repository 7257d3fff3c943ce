package hostftl

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// This file is the safety net for relocateRange's deferred remaps and the
// free-zone ring (reclaim.go, hostftl.go): the loop relocateRange replaced,
// which remaps after every copied page, lives on here unchanged as the
// reference, and twin stacks on twin devices — one running each — are
// compared after every host write. The contract is that deferral is
// invisible: same completion times, same tables, same free pool order, same
// device state, at every point a host call can observe.
//
// The function below is copied from the commit that introduced the deferral;
// only its name and the release of a full GC zone changed.

// relocateRangePerPage is the parent's relocateRange, verbatim.
//
// relocateRange moves the valid pages in [from, to) of victim into the GC
// zone, via simple copy or host read+write. It returns the completion time
// of the last relocation op.
func (f *FTL) relocateRangePerPage(at sim.Time, victim int, from, to int64) (sim.Time, bool) {
	done := at
	if f.cfg.UseSimpleCopy {
		// Batch the valid LBAs and let the controller move them; no PCIe.
		var batch []int64
		flush := func() bool {
			for len(batch) > 0 {
				if f.gcZone < 0 {
					z, ok := f.freeZones.Take(f.dev)
					if !ok {
						return false
					}
					f.gcZone = z
				}
				room := f.dev.WritableCap(f.gcZone) - f.dev.WP(f.gcZone)
				n := int64(len(batch))
				if n > room {
					n = room
				}
				if n == 0 {
					f.release(&f.gcZone) // was f.gcZone = -1: a released slot now joins the victim index
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
					return false
				}
				for i := int64(0); i < n; i++ {
					f.remap(batch[i], first+i)
				}
				batch = batch[n:]
				done = sim.Max(done, cDone)
			}
			return true
		}
		for o := from; o < to; o++ {
			src := f.dev.LBA(victim, o)
			if f.gc.P2L[src] != unmapped {
				batch = append(batch, src)
			}
		}
		if !flush() {
			return at, false
		}
		return done, true
	}

	// Host path: read each valid page over PCIe and append it back.
	for o := from; o < to; o++ {
		src := f.dev.LBA(victim, o)
		if f.gc.P2L[src] == unmapped {
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
		f.remap(src, dst)
		done = sim.Max(done, wDone)
	}
	return done, true
}

// relocTwin is one configuration of the differential run.
type relocTwin struct {
	mode       GCMode
	simpleCopy bool
	recovery   bool
	profile    string
	seed       int64
}

func (r relocTwin) String() string {
	return fmt.Sprintf("%v/simplecopy=%v/recovery=%v/%s/seed%d", r.mode, r.simpleCopy, r.recovery, r.profile, r.seed)
}

// lossy is a fault profile for this test alone. With no retry ladder one read
// in five hundred is uncorrectable: rare enough that reclamation keeps the
// pool alive, common enough that relocations are cut short by a lost read.
// "aggressive" loses a read once in 10^14.
var lossy = fault.Profile{Name: "lossy", ReadTransientProb: 2e-3, ProgramFailBase: 5e-4}

// relocTally sums what a set of runs exercised, so the test can insist the
// flush points were actually driven.
type relocTally struct {
	relocations int // relocateRange calls
	evacuations int // read-only zone evacuations
	evacInReloc int // ...of which from inside a relocation's copy loop (flush before evacuateZone)
	aborted     int // relocations cut short by a lost read or a dry pool (flush on early return)
	resets      uint64
	recoveries  int
}

// pool lists the free zones in take order. It cycles the ring once, which
// leaves the order as it was (the pool holds only Empty zones, which Take
// never drops).
func (f *FTL) pool() []int {
	out := make([]int, f.freeZones.Len())
	for i := range out {
		out[i], _ = f.freeZones.Take(f.dev)
		f.freeZones.Push(out[i])
	}
	return out
}

// requireSameState fails unless the deferred-remap stack a and the per-page
// reference b, and the devices under them, are in the same state.
func requireSameState(t *testing.T, a, b *FTL, when string) {
	t.Helper()
	if len(a.reloc.moves) != 0 {
		t.Fatalf("%s: %d remaps still pending after a host call", when, len(a.reloc.moves))
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"l2p", slices.Equal(a.gc.L2P, b.gc.L2P)},
		{"p2l", slices.Equal(a.gc.P2L, b.gc.P2L)},
		{"valid", slices.Equal(a.gc.Valid, b.gc.Valid)},
		{"free pool order", slices.Equal(a.pool(), b.pool())},
		{"open zones", slices.EqualFunc(a.streamZone, b.streamZone, slices.Equal[[]int]) &&
			slices.Equal(a.streamRR, b.streamRR) && a.gcZone == b.gcZone},
		{"incremental cursor", a.gc.Victim == b.gc.Victim && a.gc.Cursor == b.gc.Cursor && a.gc.RelocDone == b.gc.RelocDone},
		{"host counters", a.hostWrites == b.hostWrites && a.gcResets == b.gcResets && a.emergencies == b.emergencies &&
			a.remaps == b.remaps && a.evacuations == b.evacuations && a.lastStall == b.lastStall && a.nextSeq == b.nextSeq},
		{"device counters", *a.dev.Counters() == *b.dev.Counters() &&
			a.dev.Resets() == b.dev.Resets() && a.dev.Appends() == b.dev.Appends()},
		{"zone report", slices.Equal(a.dev.ZoneReport(), b.dev.ZoneReport())},
		{"flash op counts", a.dev.Flash().Counts() == b.dev.Flash().Counts()},
		{"fault draws", a.dev.Flash().Injector().Counts() == b.dev.Flash().Injector().Counts()},
	} {
		if !c.same {
			t.Fatalf("%s: %s differ between the deferred-remap stack and the per-page reference", when, c.name)
		}
	}
	ca, cb := a.dev.Flash(), b.dev.Flash()
	for l := 0; l < ca.Geom.LUNs(); l++ { // block l sits on LUN l
		if ca.LUNFreeAt(l) != cb.LUNFreeAt(l) || ca.LUNBusy(l) != cb.LUNBusy(l) {
			t.Fatalf("%s: LUN %d timing differs", when, l)
		}
	}
}

// runRelocTwins drives twin stacks through prefill, skewed random overwrites
// with trims and (when armed) three crash/recover cycles, comparing them
// after every host call.
func runRelocTwins(t *testing.T, r relocTwin, tally *relocTally) {
	t.Helper()
	prof, ok := fault.ProfileByName(r.profile)
	if r.profile == lossy.Name {
		prof, ok = lossy, true
	}
	if !ok {
		t.Fatalf("unknown fault profile %q", r.profile)
	}
	lat := flash.LatenciesFor(flash.TLC)
	var twins [2]*FTL
	for i := range twins {
		zcfg := zns.Config{
			Geom: flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
				BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096},
			Lat: lat, ZoneBlocks: 4, MaxActive: 14, Recovery: r.recovery,
		}
		if r.profile != "none" {
			zcfg.Endurance = 40 // low enough that wear-driven failures fire
		}
		dev, err := zns.New(zcfg)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		dev.SetInjector(fault.New(prof, r.seed)) // each twin draws its own, identical, stream
		twins[i] = mustNew(t, dev, Config{OPFraction: 0.3, GCMode: r.mode, UseSimpleCopy: r.simpleCopy})
	}
	a, b := twins[0], twins[1]
	// The reference twin runs the per-page loop, and counts: the twins agree
	// call for call. A relocateRange entered while another is running is an
	// evacuation of the zone the outer one was appending to.
	depth := 0
	b.relocHook = func(at sim.Time, victim int, from, to int64) (sim.Time, int, bool) {
		tally.relocations++
		if depth > 0 {
			tally.evacInReloc++
		}
		depth++
		defer func() { depth-- }()
		moved := 0 // counted up front: the per-page loop does not count
		for o := from; o < to; o++ {
			if b.gc.P2L[b.dev.LBA(victim, o)] != unmapped {
				moved++
			}
		}
		done, ok := b.relocateRangePerPage(at, victim, from, to)
		if !ok {
			tally.aborted++
		}
		return done, moved, ok
	}

	n := a.CapacityPages()
	keys := workload.NewHotCold(workload.NewSource(r.seed), n, 0.2, 0.8)
	aux := workload.NewSource(r.seed + 1)
	churn := 3 * n
	crashEvery := int64(-1)
	if r.recovery {
		crashEvery = churn / 4
	}

	var at sim.Time
	ops := 0
	write := func(lpn int64) bool {
		ops++
		doneA, errA := a.Write(at, lpn, nil)
		doneB, errB := b.Write(at, lpn, nil)
		when := fmt.Sprintf("%v: op %d (write lpn %d at t=%d)", r, ops, lpn, at)
		if doneA != doneB || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s: deferred-remap stack returned (%d, %v), per-page reference (%d, %v)",
				when, doneA, errA, doneB, errB)
		}
		requireSameState(t, a, b, when)
		switch {
		case errA == nil:
			at = doneA
		case r.profile == "none":
			t.Fatalf("%s: %v", when, errA)
		case errors.Is(errA, ErrOutOfSpace):
			return false // zones lost to wear ate the reserve; that ends the run
		}
		return true
	}

	for lpn := int64(0); lpn < n; lpn++ {
		if !write(lpn) {
			break
		}
	}
	for i := int64(1); i <= churn; i++ {
		if aux.Int63n(20) == 0 {
			lpn, cnt := aux.Int63n(n-8), 1+aux.Int63n(8)
			if err := errors.Join(a.Trim(lpn, cnt), b.Trim(lpn, cnt)); err != nil {
				t.Fatalf("%v: trim: %v", r, err)
			}
		} else if !write(keys.Next()) {
			break
		}
		if crashEvery > 0 && i%crashEvery == 0 && i < churn {
			crash := at - lat.ProgramPage/2
			repA, errA := a.Recover(crash)
			repB, errB := b.Recover(crash)
			if errA != nil || errB != nil || repA != repB {
				t.Fatalf("%v: recovery at op %d: (%+v, %v) vs (%+v, %v)", r, i, repA, errA, repB, errB)
			}
			tally.recoveries++
			at = repA.RecoveredAt
			requireSameState(t, a, b, fmt.Sprintf("%v after recovery at op %d", r, i))
			checkZoneIndex(t, a, fmt.Sprintf("%v after recovery at op %d", r, i))
		}
	}
	checkZoneIndex(t, a, r.String()+" at end")
	tally.evacuations += int(b.evacuations)
	tally.resets += b.gcResets
}

// TestRelocationMatchesPerPage runs {inline, incremental, simple-copy} x
// {recovery off, on} x {perfect media, the aggressive fault profile, a lossy
// one} x seeds 42/7/13 on a 32-zone device.
func TestRelocationMatchesPerPage(t *testing.T) {
	seeds := []int64{42, 7, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range []struct {
		name       string
		mode       GCMode
		simpleCopy bool
	}{{"inline", GCInline, false}, {"incremental", GCIncremental, false}, {"simple-copy", GCInline, true}} {
		var tally relocTally
		for _, recovery := range []bool{false, true} {
			for _, profile := range []string{"none", "aggressive", lossy.Name} {
				for _, seed := range seeds {
					runRelocTwins(t, relocTwin{mode: c.mode, simpleCopy: c.simpleCopy,
						recovery: recovery, profile: profile, seed: seed}, &tally)
				}
			}
		}
		t.Logf("%s: %+v", c.name, tally)
		if tally.relocations == 0 || tally.resets == 0 || tally.recoveries == 0 || tally.evacuations == 0 {
			t.Errorf("%s: relocation, reclamation, recovery or evacuation never ran: %+v", c.name, tally)
		}
		if !c.simpleCopy && tally.evacInReloc == 0 {
			t.Errorf("%s: no destination zone went read-only inside a relocation's copy loop: %+v", c.name, tally)
		}
	}
}
