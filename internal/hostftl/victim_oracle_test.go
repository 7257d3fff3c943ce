package hostftl

import (
	"errors"
	"fmt"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/flash"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

// This file is the safety net for the host stack's victim index (reclaim.Index
// keyed by zone pages minus dead pages): the zone scan it replaced lives on
// here, unchanged, as the reference, and the engine's pick hook compares the
// two at every single pick across the configuration matrix. The contract is
// bit-identical victims — most dead pages, then the lowest zone number — since
// one differing pick changes every pinned report.

// pickVictimScan is the parent's pickVictim, verbatim but for the name.
//
// pickVictim selects the non-open zone with the most dead (reclaimable)
// pages, or -1 if no zone has any. Requiring dead > 0 guarantees every
// relocation cycle makes net space progress, so reclamation terminates.
func (f *FTL) pickVictimScan() int {
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
		dead := f.dev.WP(z) - f.gc.Valid[z]
		if dead <= 0 {
			continue
		}
		if best < 0 || dead > bestDead {
			best, bestDead = z, dead
		}
	}
	return best
}

// isOpenForWriting is the parent's, verbatim but for the engine's cursor.
func (f *FTL) isOpenForWriting(z int) bool {
	if z == f.gcZone || z == f.gc.Victim {
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

// checkZoneIndex asserts the index invariant over all zones: the lists are
// well formed (Index.Check walks them), membership is exactly the scan's
// eligibility (minus its pick-time filter, "no dead page"), and each member's
// key is its page count minus its dead pages.
func checkZoneIndex(t *testing.T, f *FTL, when string) {
	t.Helper()
	if err := f.gc.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for z := 0; z < f.dev.NumZones(); z++ {
		st := f.dev.State(z)
		open := f.isOpenForWriting(z)
		eligible := !open && st != zns.Offline && st != zns.Empty && st != zns.ReadOnly
		key, member := f.gc.Key(z)
		if member != eligible {
			t.Fatalf("%s: zone %d indexed=%v but scan-eligible=%v (state %v, open %v)", when, z, member, eligible, st, open)
		}
		if want := f.zonePages - f.dev.WP(z) + f.gc.Valid[z]; member && int64(key) != want {
			t.Fatalf("%s: zone %d sits in bucket %d, want %d", when, z, key, want)
		}
	}
}

// scanRun is one configuration of the differential run.
type scanRun struct {
	name     string
	cfg      Config
	paced    bool // a MaintenanceStep after every write
	geom     flash.Geometry
	profile  string
	recovery bool
	seed     int64
	churn    int64 // random overwrites, in capacities
}

func (r scanRun) String() string {
	return fmt.Sprintf("%s/%s/recovery=%v/seed%d", r.name, r.profile, r.recovery, r.seed)
}

// scanTally sums what a set of runs exercised, so the test can insist the
// paths that change the index were actually driven.
type scanTally struct {
	picks, emptyPicks       int
	emergencies, evacuated  uint64
	readOnly, resets        int
	recoveries, maintenance int
}

var oracleToy = flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
	BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096}

// runScanOracle drives one stack through prefill, skewed random overwrites
// with trims and (when armed) three crash/recover cycles, with the scan
// checked against the index at every pick.
func runScanOracle(t *testing.T, r scanRun, tally *scanTally) {
	t.Helper()
	prof, ok := fault.ProfileByName(r.profile)
	if r.profile == lossy.Name {
		prof, ok = lossy, true
	}
	if !ok {
		t.Fatalf("unknown fault profile %q", r.profile)
	}
	lat := flash.LatenciesFor(flash.TLC)
	zcfg := zns.Config{Geom: r.geom, Lat: lat, ZoneBlocks: 4, MaxActive: 14, Recovery: r.recovery}
	if r.profile != "none" {
		zcfg.Endurance = 40 // low enough that wear-driven failures fire
	}
	dev, err := zns.New(zcfg)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	dev.SetInjector(fault.New(prof, r.seed)) // "none" draws and injects nothing
	f := mustNew(t, dev, r.cfg)
	f.gc.OnPick = func(_ sim.Time, got int) {
		tally.picks++
		if got < 0 {
			tally.emptyPicks++
		}
		if want := f.pickVictimScan(); got != want {
			t.Fatalf("%v: pick %d: index chose zone %d, scan chose %d", r, tally.picks, got, want)
		}
	}

	n := f.CapacityPages()
	keys := workload.NewHotCold(workload.NewSource(r.seed), n, 0.2, 0.8)
	aux := workload.NewSource(r.seed + 1)
	churn := r.churn * n
	crashEvery := int64(-1)
	if r.recovery {
		crashEvery = churn / 4
	}
	checkEvery := churn/16 + 1

	var at sim.Time
	write := func(lpn int64) bool {
		done, err := f.Write(at, lpn, nil)
		switch {
		case err == nil:
			at = done
		case r.profile == "none":
			t.Fatalf("%v: write lpn %d: %v", r, lpn, err)
		case errors.Is(err, ErrOutOfSpace):
			return false // zones lost to wear ate the reserve; that ends the run
		}
		if r.paced && f.MaintenanceStep(at, 2, 6) {
			tally.maintenance++
		}
		return true
	}

	for lpn := int64(0); lpn < n; lpn++ {
		if !write(lpn) {
			break
		}
	}
	checkZoneIndex(t, f, r.String()+" after prefill")
	for i := int64(1); i <= churn; i++ {
		if aux.Int63n(20) == 0 {
			if err := f.Trim(aux.Int63n(n-8), 1+aux.Int63n(8)); err != nil {
				t.Fatalf("%v: trim: %v", r, err)
			}
		} else if !write(keys.Next()) {
			break
		}
		if i%checkEvery == 0 {
			checkZoneIndex(t, f, fmt.Sprintf("%v after %d ops", r, i))
		}
		if crashEvery > 0 && i%crashEvery == 0 && i < churn {
			rep, err := f.Recover(at - lat.ProgramPage/2)
			if err != nil {
				t.Fatalf("%v: recover: %v", r, err)
			}
			tally.recoveries++
			at = rep.RecoveredAt
			checkZoneIndex(t, f, fmt.Sprintf("%v after recovery at op %d", r, i))
		}
	}
	checkZoneIndex(t, f, r.String()+" at end")
	for z := 0; z < f.dev.NumZones(); z++ {
		if f.dev.State(z) == zns.ReadOnly {
			tally.readOnly++
		}
	}
	tally.emergencies += f.Emergencies()
	tally.evacuated += f.Evacuations()
	tally.resets += int(f.GCResets())
}

// TestVictimIndexMatchesScan runs {inline, incremental, simple-copy,
// MaintenanceStep-paced} x {perfect media, the aggressive fault profile, a
// lossy one} x {no crashes, three crashes} x seeds 42/7/13 on a 32-zone
// device.
func TestVictimIndexMatchesScan(t *testing.T) {
	seeds := []int64{42, 7, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var all scanTally
	for _, c := range []struct {
		name  string
		cfg   Config
		paced bool
	}{
		{"inline", Config{OPFraction: 0.3}, false},
		// A one-page chunk falls behind the write stream into emergencies.
		{"incremental", Config{OPFraction: 0.3, GCMode: GCIncremental, GCChunkPages: 1}, false},
		{"simple-copy", Config{OPFraction: 0.3, UseSimpleCopy: true}, false},
		{"paced", Config{OPFraction: 0.3, GCMode: GCIncremental, GCChunkPages: 1, UseSimpleCopy: true}, true},
	} {
		var tally scanTally
		for _, profile := range []string{"none", "aggressive", lossy.Name} {
			for _, recovery := range []bool{false, true} {
				for _, seed := range seeds {
					runScanOracle(t, scanRun{name: c.name, cfg: c.cfg, paced: c.paced, geom: oracleToy,
						profile: profile, recovery: recovery, seed: seed, churn: 3}, &tally)
				}
			}
		}
		t.Logf("%s: %+v", c.name, tally)
		if tally.picks == 0 || tally.resets == 0 || tally.recoveries == 0 {
			t.Errorf("%s: reclamation or recovery never ran: %+v", c.name, tally)
		}
		if c.paced && tally.maintenance == 0 {
			t.Errorf("%s: MaintenanceStep never reclaimed: %+v", c.name, tally)
		}
		all.emergencies += tally.emergencies
		all.evacuated += tally.evacuated
		all.readOnly += tally.readOnly
	}
	if all.emergencies == 0 || all.evacuated == 0 || all.readOnly == 0 {
		t.Errorf("emergencies %d, evacuations %d, read-only zones %d: each path must run",
			all.emergencies, all.evacuated, all.readOnly)
	}
}

// TestVictimIndexMatchesScanFemu256 is the same check at the benchmark's
// geometry (1 024 zones), one run with crashes.
func TestVictimIndexMatchesScanFemu256(t *testing.T) {
	if testing.Short() {
		t.Skip("1 Mi-page device")
	}
	var tally scanTally
	r := scanRun{name: "femu256", cfg: Config{OPFraction: 0.07, GCMode: GCIncremental}, geom: femu256,
		profile: "none", recovery: true, seed: 42, churn: 1}
	runScanOracle(t, r, &tally)
	t.Logf("%v: %+v", r, tally)
	if tally.picks == 0 {
		t.Errorf("%v: reclamation never ran", r)
	}
}
