package ftl

import (
	"errors"
	"fmt"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
)

// This file is the safety net for the GC victim index (reclaim.Index, keyed by
// valid count, see victim.go): the linear
// scan the index replaced lives on here, unchanged, as the reference, and a
// pick hook compares the two at every single pick across the configuration
// matrix. The contract is bit-identical victims — the tie-break (fewest valid,
// then least erased, then lowest block number) decides which block every
// experiment relocates, so one differing pick changes every pinned report.

// isFrontier reports whether block is a currently open write frontier.
func (d *Device) isFrontier(block int) bool {
	for _, fronts := range d.hostFront {
		for i := range fronts {
			if fronts[i].block == block {
				return true
			}
		}
	}
	for i := range d.gcFront {
		if d.gcFront[i].block == block {
			return true
		}
	}
	return false
}

// pickVictimScan is pickVictim as it was before the index: a scan over every
// block. The ascending scan order is what made the lowest block number the
// final tie-break.
func (d *Device) pickVictimScan(at sim.Time) int {
	best := -1
	var bestValid int64
	var bestScore float64
	for b := 0; b < d.geom.TotalBlocks(); b++ {
		if d.chip.IsBad(b) || d.freeBit[b] || d.isFrontier(b) || b == d.gc.Victim {
			continue
		}
		if d.chip.WrittenPages(b) < d.pages && !d.chip.IsSealed(b) {
			continue
		}
		v := d.gc.Valid[b]
		if v >= int64(d.pages) {
			continue // nothing to gain
		}
		switch d.cfg.GCPolicy {
		case CostBenefit:
			u := float64(v) / float64(d.pages)
			age := float64(at-d.gc.LastKill[b]) + 1
			var score float64
			if u == 0 {
				score = age * 1e12 // free lunch: a fully dead block
			} else {
				score = age * (1 - u) / (2 * u)
			}
			if best < 0 || score > bestScore ||
				(score == bestScore && d.chip.EraseCount(b) < d.chip.EraseCount(best)) {
				best, bestScore = b, score
			}
		default: // Greedy
			if best < 0 || v < bestValid ||
				(v == bestValid && d.chip.EraseCount(b) < d.chip.EraseCount(best)) {
				best, bestValid = b, v
			}
		}
	}
	return best
}

// hostSlotsSum is hostSlots as it was before the hostResidual counter.
func (d *Device) hostSlotsSum() int64 {
	free := int64(d.freeCount - gcReserveBlocks)
	if free < 0 {
		free = 0
	}
	slots := free * int64(d.pages)
	for _, fronts := range d.hostFront {
		for i := range fronts {
			if b := fronts[i].block; b >= 0 {
				slots += int64(d.pages - d.chip.WrittenPages(b))
			}
		}
	}
	return slots
}

// checkVictimIndex asserts the index invariant over all blocks: the lists are
// well formed (Index.Check walks them), membership is exactly the scan's
// eligibility predicate (minus its pick-time filter, "nothing to gain"), and
// every member sits in the bucket of its valid count.
func checkVictimIndex(t *testing.T, d *Device, when string) {
	t.Helper()
	if err := d.gc.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for b := 0; b < d.blocks; b++ {
		eligible := !d.chip.IsBad(b) && !d.freeBit[b] && !d.isFrontier(b) && b != d.gc.Victim &&
			(d.chip.WrittenPages(b) >= d.pages || d.chip.IsSealed(b))
		key, member := d.gc.Key(b)
		if member != eligible {
			t.Fatalf("%s: block %d indexed=%v but scan-eligible=%v (bad %v free %v frontier %v written %d sealed %v)",
				when, b, member, eligible, d.chip.IsBad(b), d.freeBit[b], d.isFrontier(b),
				d.chip.WrittenPages(b), d.chip.IsSealed(b))
		}
		if member && int64(key) != d.gc.Valid[b] {
			t.Fatalf("%s: block %d sits in bucket %d with %d valid pages", when, b, key, d.gc.Valid[b])
		}
	}
	if got, want := d.hostSlots(), d.hostSlotsSum(); got != want {
		t.Fatalf("%s: hostSlots counter %d, summed form %d", when, got, want)
	}
}

type oracleRun struct {
	geom     flash.Geometry
	policy   GCPolicy
	mode     GCMode
	streams  int
	separate bool
	profile  string
	recovery bool // arm Config.Recovery and crash at three points
	seed     int64
	// fill and churn are the sequential prefill and the random-overwrite
	// phase, as fractions of logical capacity.
	fill, churn float64
}

func (r oracleRun) String() string {
	return fmt.Sprintf("%dx%dx%d/%v/%v/streams%d/sep=%v/%s/recovery=%v/seed%d",
		r.geom.Channels, r.geom.DiesPerChan, r.geom.BlocksPerLUN,
		r.policy, r.mode, r.streams, r.separate, r.profile, r.recovery, r.seed)
}

// oracleTally sums what a set of runs exercised, so the test can insist the
// paths the index hooks were actually driven.
type oracleTally struct {
	picks, emptyPicks   int
	incrementalErases   int // incremental victims held across writes (skipped by picks meanwhile), then erased
	emergencies         int // incremental mode's slots <= threshold/2 foreground pass
	recoveries, retired int
}

// runOracle drives one device through prefill, skewed random overwrites with
// trims, and (when armed) three crash/recover cycles, with the scan checked
// against the index at every pick.
func runOracle(t *testing.T, r oracleRun, tally *oracleTally) {
	t.Helper()
	prof, ok := fault.ProfileByName(r.profile)
	if !ok {
		t.Fatalf("unknown fault profile %q", r.profile)
	}
	cfg := Config{
		Geom: r.geom, Lat: flash.LatenciesFor(flash.TLC),
		OPFraction: 0.07, GCPolicy: r.policy, GCMode: r.mode,
		// Two pages per write is less than the write amplification at 7 %
		// OP, so incremental GC completes victims and still falls behind
		// into its emergency pass.
		GCChunkPages:      2,
		HotColdSeparation: r.separate, Streams: r.streams,
		TrimSupported: true, Recovery: r.recovery,
	}
	if r.profile != "none" {
		cfg.Endurance = 40 // low enough that wear-driven failures and ErrWornOut fire
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	d.SetInjector(fault.New(prof, r.seed)) // "none" draws and injects nothing
	d.gc.OnPick = func(at sim.Time, got int) {
		tally.picks++
		if got < 0 {
			tally.emptyPicks++
		}
		if want := d.pickVictimScan(at); got != want {
			t.Fatalf("%v: pick %d at t=%d: index chose block %d, scan chose %d",
				r, tally.picks, at, got, want)
		}
		if got, want := d.hostSlots(), d.hostSlotsSum(); got != want {
			t.Fatalf("%v: pick %d: hostSlots counter %d, summed form %d", r, tally.picks, got, want)
		}
	}

	n := d.CapacityPages()
	keys := workload.NewHotCold(workload.NewSource(r.seed), n, 0.2, 0.8)
	aux := workload.NewSource(r.seed + 1)
	fill, churn := int64(r.fill*float64(n)), int64(r.churn*float64(n))
	crashEvery := int64(-1)
	if r.recovery {
		crashEvery = churn / 4
	}
	checkEvery := churn/16 + 1

	var at sim.Time
	write := func(lpn int64) bool {
		victim := d.gc.Victim
		done, err := d.WritePageStream(at, lpn, int(lpn%int64(r.streams)), nil)
		if d.cfg.GCMode == GCDeviceIncremental {
			if victim >= 0 && d.gc.Victim != victim && (d.freeBit[victim] || d.chip.IsBad(victim)) {
				tally.incrementalErases++
			}
			if d.lastGCStall > 0 {
				tally.emergencies++
			}
		}
		switch {
		case err == nil:
			at = done
		case r.profile == "none" && !r.recovery:
			t.Fatalf("%v: write lpn %d: %v", r, lpn, err)
		case errors.Is(err, ErrOutOfSpace):
			// Retired blocks, or the torn frontiers a crash seals on so small
			// a device, ate the spare capacity. That ends the run; with every
			// pick equal to the scan's it is the model's behaviour, not the
			// index's.
			return false
		}
		return true
	}

	for lpn := int64(0); lpn < fill; lpn++ {
		if !write(lpn) {
			break
		}
	}
	checkVictimIndex(t, d, r.String()+" after prefill")
	for i := int64(1); i <= churn; i++ {
		if aux.Int63n(20) == 0 {
			lpn := aux.Int63n(n - 8)
			if err := d.Trim(at, lpn, 1+aux.Int63n(8)); err != nil {
				t.Fatalf("%v: trim: %v", r, err)
			}
		} else if !write(keys.Next()) {
			break
		}
		if i%checkEvery == 0 {
			checkVictimIndex(t, d, fmt.Sprintf("%v after %d ops", r, i))
		}
		if crashEvery > 0 && i%crashEvery == 0 && i < churn {
			// Cut power with the newest programs still in flight, so frontiers
			// tear and recovery seals them.
			rep, err := d.Recover(at - d.cfg.Lat.ProgramPage/2)
			if err != nil {
				t.Fatalf("%v: recover: %v", r, err)
			}
			tally.recoveries++
			at = rep.RecoveredAt
			checkVictimIndex(t, d, fmt.Sprintf("%v after recovery at op %d", r, i))
		}
	}
	checkVictimIndex(t, d, r.String()+" at end")
	for b := 0; b < d.blocks; b++ {
		if d.chip.IsBad(b) {
			tally.retired++
		}
	}
}

var (
	oracleToy        = flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096}
	oracleDegenerate = flash.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerLUN: 96, PagesPerBlock: 16, PageSize: 4096}
	oracleFemu256    = flash.Geometry{Channels: 8, DiesPerChan: 8, PlanesPerDie: 1, BlocksPerLUN: 64, PagesPerBlock: 256, PageSize: 4096}
)

// TestVictimIndexMatchesScan runs the full matrix — policy x GC mode x
// streams x hot/cold separation x fault profile x {no crashes, three crashes}
// x seeds — on the toy device and on a 1-channel x 1-LUN device, where every
// frontier shares one LUN's free list.
func TestVictimIndexMatchesScan(t *testing.T) {
	seeds := []int64{42, 7, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, geom := range []flash.Geometry{oracleToy, oracleDegenerate} {
		for _, policy := range []GCPolicy{Greedy, CostBenefit} {
			for _, mode := range []GCMode{GCForeground, GCDeviceIncremental} {
				var tally oracleTally
				for _, streams := range []int{1, 4} {
					for _, separate := range []bool{true, false} {
						for _, profile := range fault.ProfileNames() {
							for _, recovery := range []bool{false, true} {
								for _, seed := range seeds {
									runOracle(t, oracleRun{geom: geom, policy: policy, mode: mode,
										streams: streams, separate: separate, profile: profile,
										recovery: recovery, seed: seed, fill: 1, churn: 2}, &tally)
								}
							}
						}
					}
				}
				name := fmt.Sprintf("%d-LUN/%v/%v", geom.LUNs(), policy, mode)
				t.Logf("%s: %+v", name, tally)
				if tally.picks == 0 || tally.recoveries == 0 || tally.retired == 0 {
					t.Errorf("%s: GC, recovery or block retirement never ran: %+v", name, tally)
				}
				if mode == GCDeviceIncremental && (tally.incrementalErases == 0 || tally.emergencies == 0) {
					t.Errorf("%s: incremental GC must complete a victim erase and hit the emergency pass: %+v",
						name, tally)
				}
			}
		}
	}
}

// TestVictimIndexMatchesScanFemu256 is the same check at the benchmark's
// geometry (4 096 blocks, 64 LUNs), where the scan costs ~0.2 ms a pick: one
// run per policy x mode, with the other dimensions rotated through them and a
// shorter churn.
func TestVictimIndexMatchesScanFemu256(t *testing.T) {
	if testing.Short() {
		t.Skip("1 Mi-page device")
	}
	// "aggressive" is tuned for toy devices: a 1 Mi-page prefill alone would
	// retire hundreds of blocks and end the run before GC starts.
	profiles := []string{"none", "default", "wearout", "default"}
	i := 0
	for _, policy := range []GCPolicy{Greedy, CostBenefit} {
		for _, mode := range []GCMode{GCForeground, GCDeviceIncremental} {
			var tally oracleTally
			r := oracleRun{geom: oracleFemu256, policy: policy, mode: mode,
				streams: 1 + 3*(i%2), separate: i < 2, profile: profiles[i],
				recovery: i%2 == 1, seed: []int64{42, 7, 13, 99}[i], fill: 1, churn: 0.15}
			runOracle(t, r, &tally)
			t.Logf("%v: %+v", r, tally)
			if tally.picks == 0 {
				t.Errorf("%v: GC never ran", r)
			}
			i++
		}
	}
}
