package core

import (
	"strings"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/fault/oracle"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
)

// runFaultSchedule is the differential harness core shared by the integrity
// test, the crash matrix, and the fuzzer: it drives one stack through a
// mixed, oracle-checked workload of total host ops, power-fails mid-program
// after the crashIdx'th op (crashIdx < 0 disables the crash), recovers,
// differentially verifies every logical page, resumes to the end, and
// finishes with a full live verification sweep plus the stack's own device
// audit.
func runFaultSchedule(s e13Stack, seed int64, total, crashIdx int64) (*oracle.Oracle, error) {
	oc := oracle.New(s.capacity)
	src := workload.NewSource(seed)
	wGen := workload.NewHotCold(src, s.capacity, 0.2, 0.8)
	rGen := workload.NewUniform(src, s.capacity)

	var at sim.Time
	writeOne := func() {
		lpn := wGen.Next()
		issued := at
		done, err := s.write(at, lpn)
		if err != nil {
			return // capacity lost to faults; the oracle only tracks acks
		}
		at = done
		oc.RecordWrite(lpn, issued, done)
	}
	readOne := func(lpn int64, recovered bool) {
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
	crash := func() error {
		// Pull the plug halfway through one more write's program, the
		// acknowledged-but-possibly-torn case.
		crashT := at
		for try := 0; try < 8; try++ {
			lpn := wGen.Next()
			issued := at
			done, err := s.write(at, lpn)
			if err != nil {
				continue
			}
			oc.RecordWrite(lpn, issued, done)
			at = done
			crashT = issued + (done-issued)/2
			break
		}
		oc.Crash(crashT)
		rep, err := s.recover(crashT)
		if err != nil {
			return err
		}
		at = rep.RecoveredAt
		for lpn := int64(0); lpn < s.capacity; lpn++ {
			readOne(lpn, true)
		}
		oc.Resync(s.nextSeq())
		return nil
	}

	for i := int64(0); i < total; i++ {
		if i%4 == 3 {
			readOne(rGen.Next(), false)
		} else {
			writeOne()
		}
		if i == crashIdx {
			if err := crash(); err != nil {
				return oc, err
			}
		}
	}
	for lpn := int64(0); lpn < s.capacity; lpn++ {
		readOne(lpn, false)
	}
	if _, err := s.device(); err != nil {
		return oc, err
	}
	return oc, nil
}

// faultStackBuilders names the two stacks the differential tests compare.
var faultStackBuilders = []struct {
	name  string
	build func(Config, fault.Profile) (e13Stack, error)
}{
	{"conventional", e13Conventional},
	{"zns", e13Host},
}

// TestFaultIntegrityDifferential is the differential property test: under
// every fault profile — including faults-off, which proves the harness
// itself is clean — both stacks run a mixed workload through the oracle,
// survive a mid-run power loss, and finish with zero integrity violations.
func TestFaultIntegrityDifferential(t *testing.T) {
	cfg := Config{Quick: true, Seed: 42}
	for _, prof := range fault.Profiles() {
		for _, sb := range faultStackBuilders {
			t.Run(prof.Name+"/"+sb.name, func(t *testing.T) {
				s, err := sb.build(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				const total = 1600
				oc, err := runFaultSchedule(s, cfg.Seed, total, total/2)
				if err != nil {
					t.Fatal(err)
				}
				if v := oc.Violations(); v != 0 {
					t.Fatalf("%d integrity violations:\n%v", v, oc.Details())
				}
				if prof.Name == "none" && oc.LostReads() != 0 {
					t.Fatalf("faults-off run lost %d reads", oc.LostReads())
				}
			})
		}
	}
}

// TestE13CrashBehindGCStall pins the seeds at which the campaign's last
// write before the plug is pulled stalls behind foreground GC for over a
// second: its midpoint, the crash instant the harness asks for, precedes
// erases the model has already applied. The flash layer moves the crash up
// to the latest erase issue, so the relocation copies those erases depended
// on are durable and recovery finds every acknowledged page.
func TestE13CrashBehindGCStall(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 5}, {Seed: 71}, {Seed: 97, Quick: true}, {Seed: 256, Quick: true},
	} {
		rep, err := runE13(cfg)
		if err != nil {
			t.Errorf("seed %d quick=%v: %v", cfg.Seed, cfg.Quick, err)
		}
		for _, n := range rep.Notes {
			if strings.Contains(n, "ORACLE VIOLATION") {
				t.Errorf("seed %d quick=%v: %s", cfg.Seed, cfg.Quick, n)
			}
		}
	}
}

// TestE13RejectsUnknownProfile: a bad -faults value is a configuration
// error, not a silent fallback.
func TestE13RejectsUnknownProfile(t *testing.T) {
	if _, err := runE13(Config{Quick: true, Seed: 42, FaultProfile: "no-such"}); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}

// TestE13NoneProfileRunsControlOnly: asking for "none" must not silently
// upgrade to the default campaign profile.
func TestE13NoneProfileRunsControlOnly(t *testing.T) {
	rep, err := runE13(Config{Quick: true, Seed: 42, FaultProfile: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("none-profile run produced %d rows, want 2 (one per stack)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[1] != "none" {
			t.Fatalf("none-profile run contains profile %q", row[1])
		}
	}
}
