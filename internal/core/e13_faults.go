package core

import (
	"fmt"

	"blockhead/internal/fault"
	"blockhead/internal/fault/oracle"
	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/hostftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Degradation under NAND faults + power loss (differential harness)",
		PaperClaim: "flash cell failures are handled by shrinking a zone or taking it " +
			"offline (§2.1); the thin zone FTL recovers by write-pointer rediscovery " +
			"while a page-mapped FTL must rescan its mapping (§2.2)",
		Run: runE13,
	})
}

// The campaign note in EXPERIMENTS.md calls this experiment out: the issue
// that introduced it labeled it "E9", but E9 was already taken by
// lifetime-aware placement, so the fault campaign registers as E13.

func e13Geometry() flash.Geometry {
	return flash.Geometry{Channels: 4, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 48, PagesPerBlock: 64, PageSize: 4096}
}

// e13Endurance keeps the wear fraction meaningful over a short campaign, so
// the wear-coupled failure terms of the profiles actually engage.
const e13Endurance = 150

// e13Stack abstracts the two FTL stacks for the shared campaign drive:
// fill, churn with live integrity checks, power loss mid-churn, recovery,
// full differential verification, resumed churn, final verification.
type e13Stack struct {
	name     string
	capacity int64
	inj      *fault.Injector
	write    func(at sim.Time, lpn int64) (sim.Time, error)
	readMeta func(at sim.Time, lpn int64) (sim.Time, int64, uint64, error)
	recover  func(at sim.Time) (fault.RecoveryReport, error)
	nextSeq  func() uint64
	programs func() uint64
	device   func() (DeviceState, error)
}

// e13Result is one stack-under-one-profile campaign outcome.
type e13Result struct {
	stack       string
	profile     string
	hostWrites  uint64
	writeErrors uint64
	counts      fault.Counts
	rep         fault.RecoveryReport
	wa          float64
	violations  uint64
	lostReads   uint64
	details     []string
	device      DeviceState
}

// e13Campaign drives one stack through the full fault campaign. Every
// acknowledged write is mirrored into the oracle; every ReadMeta result is
// checked against it, live and across the crash.
func e13Campaign(s e13Stack, cfg Config, profileName string) (e13Result, error) {
	res := e13Result{stack: s.name, profile: profileName}
	oc := oracle.New(s.capacity)
	src := workload.NewSource(cfg.Seed)
	hc := workload.NewHotCold(src, s.capacity, 0.2, 0.8)
	rd := workload.NewUniform(src, s.capacity)

	var at sim.Time
	writeOne := func(lpn int64) {
		issued := at
		done, err := s.write(at, lpn)
		if err != nil {
			res.writeErrors++
			return
		}
		at = done
		oc.RecordWrite(lpn, issued, done)
		res.hostWrites++
	}
	verifyAll := func(recovered bool) {
		for lpn := int64(0); lpn < s.capacity; lpn++ {
			done, gotLPN, seq, err := s.readMeta(at, lpn)
			if err == nil {
				at = done
			}
			if recovered {
				oc.CheckRecovered(lpn, gotLPN, seq, err)
			} else {
				oc.CheckLive(lpn, gotLPN, seq, err)
			}
		}
	}

	for lpn := int64(0); lpn < s.capacity; lpn++ {
		writeOne(lpn)
	}
	churn := 2 * s.capacity
	if cfg.Quick {
		churn = s.capacity
	}
	churnPhase := func(n int64) {
		for i := int64(0); i < n; i++ {
			if i%4 == 3 {
				lpn := rd.Next()
				done, gotLPN, seq, err := s.readMeta(at, lpn)
				if err == nil {
					at = done
				}
				oc.CheckLive(lpn, gotLPN, seq, err)
				continue
			}
			writeOne(hc.Next())
		}
	}
	churnPhase(churn / 2)

	// Pull the plug with a write still in flight: issue one more write and
	// crash halfway between its issue and its acknowledged completion, so
	// recovery must handle an acknowledged-but-possibly-torn program on top
	// of whatever relocations the GC had outstanding.
	crashT := at
	for try := 0; try < 8; try++ {
		lpn := hc.Next()
		issued := at
		done, err := s.write(at, lpn)
		if err != nil {
			res.writeErrors++
			continue
		}
		oc.RecordWrite(lpn, issued, done)
		res.hostWrites++
		at = done
		crashT = issued + (done-issued)/2
		break
	}
	oc.Crash(crashT)
	rep, err := s.recover(crashT)
	if err != nil {
		return res, err
	}
	res.rep = rep
	at = rep.RecoveredAt
	verifyAll(true)
	oc.Resync(s.nextSeq())

	churnPhase(churn - churn/2)
	verifyAll(false)

	res.counts = s.inj.Counts()
	res.violations = oc.Violations()
	res.lostReads = oc.LostReads()
	res.details = oc.Details()
	if res.hostWrites > 0 {
		res.wa = float64(s.programs()) / float64(res.hostWrites)
	}
	if res.device, err = s.device(); err != nil {
		return res, err
	}
	return res, nil
}

// e13Conventional builds the page-mapped baseline with recovery armed.
func e13Conventional(cfg Config, prof fault.Profile) (e13Stack, error) {
	dev, err := ftl.New(ftl.Config{
		Geom:              e13Geometry(),
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.11,
		HotColdSeparation: true,
		TrimSupported:     true,
		Endurance:         e13Endurance,
		Recovery:          true,
	})
	if err != nil {
		return e13Stack{}, err
	}
	probe := attrProbe(cfg)
	dev.SetProbe(probe)
	inj := fault.New(prof, cfg.Seed*31+1)
	dev.SetInjector(inj)
	name := "conventional (page-mapped FTL)"
	return e13Stack{
		name:     name,
		capacity: dev.CapacityPages(),
		inj:      inj,
		write: func(at sim.Time, lpn int64) (sim.Time, error) {
			return dev.WritePage(at, lpn, nil)
		},
		readMeta: dev.ReadMeta,
		recover: func(at sim.Time) (fault.RecoveryReport, error) {
			return dev.Recover(at)
		},
		nextSeq:  dev.NextSeq,
		programs: func() uint64 { return dev.Counters().FlashProgramPages },
		device: func() (DeviceState, error) {
			return DeviceState{Name: name, Wear: dev.Flash().Wear()}, nil
		},
	}, nil
}

// e13Host builds the ZNS + host-FTL stack with recovery armed and the zone
// state machine audited throughout (including across the crash).
func e13Host(cfg Config, prof fault.Profile) (e13Stack, error) {
	zdev, err := zns.New(zns.Config{
		Geom:       e13Geometry(),
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4,
		Endurance:  e13Endurance,
		Recovery:   true,
	})
	if err != nil {
		return e13Stack{}, err
	}
	f, err := hostftl.New(zdev, hostftl.Config{
		OPFraction:     0.20,
		Streams:        2,
		ZonesPerStream: 2,
		UseSimpleCopy:  true,
		GCMode:         hostftl.GCIncremental,
		GCChunkPages:   8,
	})
	if err != nil {
		return e13Stack{}, err
	}
	probe := attrProbe(cfg)
	f.SetProbe(probe)
	inj := fault.New(prof, cfg.Seed*31+2)
	zdev.SetInjector(inj)
	aud := zdev.AttachAuditor()
	name := "host FTL on ZNS"
	return e13Stack{
		name:     name,
		capacity: f.CapacityPages(),
		inj:      inj,
		write: func(at sim.Time, lpn int64) (sim.Time, error) {
			return f.Write(at, lpn, nil)
		},
		readMeta: f.ReadMeta,
		recover:  f.Recover,
		nextSeq:  f.NextSeq,
		programs: func() uint64 { return f.Counters().FlashProgramPages },
		device: func() (DeviceState, error) {
			if err := aud.Check(); err != nil {
				return DeviceState{}, err
			}
			return deviceState(name, zdev, aud), nil
		},
	}, nil
}

func runE13(cfg Config) (Report, error) {
	r := Report{
		ID:    "E13",
		Title: "Degradation under NAND faults + power loss",
		PaperClaim: "both stacks must survive grown-bad blocks and power loss; " +
			"the zone FTL pays O(blocks) write-pointer rediscovery where the " +
			"page-mapped FTL pays an O(written pages) mapping scan (§2.1-§2.2)",
		Header: []string{"Configuration", "Profile", "Writes", "WA",
			"ProgFail", "EraseFail", "RetryRds", "Bad", "CrashLost",
			"ScanPg", "RecMaps", "Viol", "Lost"},
	}
	profileName := cfg.FaultProfile
	if profileName == "" {
		// Standalone default: visible degradation without being asked.
		profileName = "aggressive"
	}
	prof, ok := fault.ProfileByName(profileName)
	if !ok {
		return r, fmt.Errorf("E13: unknown fault profile %q (valid: %v)",
			profileName, fault.ProfileNames())
	}
	profiles := []fault.Profile{prof}
	if prof.Name != "none" {
		// The faults-off control always runs first: it proves the harness
		// itself is clean, and its recovery numbers isolate the pure
		// crash-recovery cost from the fault-handling cost.
		none, _ := fault.ProfileByName("none")
		profiles = []fault.Profile{none, prof}
	}
	builders := []func(Config, fault.Profile) (e13Stack, error){e13Conventional, e13Host}
	// Each (profile, stack) campaign is one part: its own device, injector
	// (seeded from cfg.Seed, consumed in the part's virtual-time order),
	// and oracle, so the crash matrix parallelizes without sharing state.
	type spec struct {
		prof  fault.Profile
		build func(Config, fault.Profile) (e13Stack, error)
	}
	var specs []spec
	for _, p := range profiles {
		for _, build := range builders {
			specs = append(specs, spec{prof: p, build: build})
		}
	}
	results := make([]e13Result, len(specs))
	var tasks []partTask
	for i, sp := range specs {
		sp := sp
		tasks = append(tasks, part(&results[i], func(c Config) (e13Result, error) {
			s, err := sp.build(c, sp.prof)
			if err != nil {
				return e13Result{}, err
			}
			res, err := e13Campaign(s, c, sp.prof.Name)
			if err != nil {
				return e13Result{}, fmt.Errorf("E13 %s/%s: %w", s.name, sp.prof.Name, err)
			}
			return res, nil
		}))
	}
	if err := runParts(cfg, tasks...); err != nil {
		return r, err
	}
	for _, res := range results {
		c := res.counts
		r.AddRow(res.stack, res.profile,
			fmt.Sprintf("%d", res.hostWrites), fmt.Sprintf("%.2f", res.wa),
			fmt.Sprintf("%d", c.ProgramFails), fmt.Sprintf("%d", c.EraseFails),
			fmt.Sprintf("%d", c.ReadRetryOps), fmt.Sprintf("%d", res.device.Wear.BadBlocks),
			fmt.Sprintf("%d", res.rep.LostPages), fmt.Sprintf("%d", res.rep.ScannedPages),
			fmt.Sprintf("%d", res.rep.RecoveredMappings),
			fmt.Sprintf("%d", res.violations), fmt.Sprintf("%d", res.lostReads))
		r.AddDeviceState(res.device)
		r.AddNote("%s/%s: %s", res.stack, res.profile, res.rep.String())
		if res.writeErrors > 0 {
			r.AddNote("%s/%s: %d writes failed (capacity lost to faults)",
				res.stack, res.profile, res.writeErrors)
		}
		for _, d := range res.details {
			r.AddNote("%s/%s: ORACLE VIOLATION: %s", res.stack, res.profile, d)
		}
		if res.violations > 0 {
			return r, fmt.Errorf("E13 %s/%s: %d integrity violations",
				res.stack, res.profile, res.violations)
		}
	}
	r.AddNote("recovery asymmetry: the conventional scan reads every written page; " +
		"the zone stack reads one page per written block, then the host rebuilds " +
		"its map on its own schedule (a real deployment would checkpoint it)")
	r.AddNote("fault campaign registered as E13; the introducing issue's \"E9\" label " +
		"was already taken by lifetime-aware placement")
	return r, nil
}
