package fault

import (
	"reflect"
	"testing"
)

// TestProfileByName covers the lookup contract: empty means "none", every
// listed name resolves to itself, unknown names are rejected.
func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("")
	if !ok || p.Name != "none" {
		t.Fatalf(`ProfileByName("") = %v, %v; want the "none" profile`, p, ok)
	}
	for _, name := range ProfileNames() {
		p, ok := ProfileByName(name)
		if !ok || p.Name != name {
			t.Fatalf("ProfileByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := ProfileByName("no-such-profile"); ok {
		t.Fatal("unknown profile name resolved")
	}
	if got := ProfileNames(); len(got) < 4 || got[0] != "none" {
		t.Fatalf("ProfileNames() = %v; want none first and at least 4 entries", got)
	}
}

// TestNoneProfileInert: the "none" profile injects nothing and draws no
// entropy, so arming it cannot perturb a run.
func TestNoneProfileInert(t *testing.T) {
	prof, _ := ProfileByName("none")
	inj := New(prof, 1)
	for k := 0; k < 1000; k++ {
		if r, unc := inj.ReadFaults(1.0); r != 0 || unc {
			t.Fatalf("none profile injected a read fault (retries=%d unc=%v)", r, unc)
		}
		if inj.ProgramFails(1.0) || inj.EraseFails(1.0) {
			t.Fatal("none profile injected a hard failure")
		}
	}
	if c := inj.Counts(); c != (Counts{}) {
		t.Fatalf("none profile counted faults: %+v", c)
	}
}

// TestSameSeedSameFaults is the determinism pin: two injectors with the same
// profile and seed produce identical decision streams, a different seed
// diverges.
func TestSameSeedSameFaults(t *testing.T) {
	prof, _ := ProfileByName("aggressive")
	type draw struct {
		retries int
		unc     bool
		prog    bool
		erase   bool
	}
	run := func(seed int64) []draw {
		inj := New(prof, seed)
		out := make([]draw, 0, 4000)
		for k := 0; k < 4000; k++ {
			wear := float64(k) / 4000
			var d draw
			d.retries, d.unc = inj.ReadFaults(wear)
			d.prog = inj.ProgramFails(wear)
			d.erase = inj.EraseFails(wear)
			out = append(out, d)
		}
		return out
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	if reflect.DeepEqual(a, run(43)) {
		t.Fatal("different seeds produced identical fault streams (suspicious)")
	}
}

// TestWearRaisesHardFailures: the wear multiplier must make hard failures
// more likely on worn blocks — the grown-bad-block process of §2.1.
func TestWearRaisesHardFailures(t *testing.T) {
	prof, _ := ProfileByName("wearout")
	const n = 200000
	fresh, worn := New(prof, 7), New(prof, 7)
	var freshFails, wornFails uint64
	for k := 0; k < n; k++ {
		if fresh.ProgramFails(0.0) {
			freshFails++
		}
		if worn.ProgramFails(1.0) {
			wornFails++
		}
	}
	if wornFails <= freshFails*10 {
		t.Fatalf("wear multiplier too weak: fresh=%d worn=%d program fails over %d draws",
			freshFails, wornFails, n)
	}
	if got := worn.Counts().ProgramFails; got != wornFails {
		t.Fatalf("Counts().ProgramFails = %d, want %d", got, wornFails)
	}
}

// TestReadRetryBudget: the retry count never exceeds the profile's budget,
// and exhausting it is reported as uncorrectable exactly once per read.
func TestReadRetryBudget(t *testing.T) {
	prof := Profile{Name: "hot", ReadTransientProb: 0.5, ReadRetries: 3}
	inj := New(prof, 99)
	var uncs uint64
	for k := 0; k < 20000; k++ {
		r, unc := inj.ReadFaults(0)
		if r > prof.ReadRetries {
			t.Fatalf("retries %d exceed budget %d", r, prof.ReadRetries)
		}
		if unc {
			if r != prof.ReadRetries {
				t.Fatalf("uncorrectable read reported %d retries, want the full budget %d",
					r, prof.ReadRetries)
			}
			uncs++
		}
	}
	if uncs == 0 {
		t.Fatal("p=0.5 with 3 retries never exhausted the budget over 20k reads")
	}
	if got := inj.Counts().Uncorrectable; got != uncs {
		t.Fatalf("Counts().Uncorrectable = %d, want %d", got, uncs)
	}
}

// TestNilInjector: every method on the nil *Injector is the disabled no-op —
// the device hot paths call them unconditionally.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if r, unc := inj.ReadFaults(1); r != 0 || unc {
		t.Fatal("nil injector injected a read fault")
	}
	if inj.ProgramFails(1) || inj.EraseFails(1) {
		t.Fatal("nil injector injected a hard failure")
	}
	if inj.Counts() != (Counts{}) || inj.Profile() != (Profile{}) {
		t.Fatal("nil injector reported non-zero state")
	}
}

// TestRecoveryReportString pins the one-line summary format the reports and
// the fault-campaign determinism check depend on.
func TestRecoveryReportString(t *testing.T) {
	r := RecoveryReport{Stack: "conventional", CrashAt: 1_500_000, RecoveredAt: 2_500_000,
		LostPages: 3, TornBlocks: 1, ScannedBlocks: 10, ScannedPages: 640,
		RecoveredMappings: 600, SealedBlocks: 2, ErasedBlocks: 1}
	want := "conventional recovery: 1.000ms (crash@1.500ms, lost 3 in-flight pages, " +
		"1 torn blocks), scanned 640 pages/10 blocks, 600 mappings, sealed 2, erased 1"
	if got := r.String(); got != want {
		t.Fatalf("String() =\n  %s\nwant\n  %s", got, want)
	}
	if r.Duration() != 1_000_000 {
		t.Fatalf("Duration() = %d, want 1ms", r.Duration())
	}
}
