package flash

import (
	"errors"
	"testing"

	"blockhead/internal/fault"
	"blockhead/internal/sim"
)

// recoveryDev builds a small device with the recovery machinery armed.
func recoveryDev() *Device {
	d := New(smallGeom(), LatenciesFor(TLC))
	d.EnableRecovery()
	return d
}

// TestOOBRoundTrip: stamps survive programming and propagate through
// CopyPage, so relocation never forges fresher versions.
func TestOOBRoundTrip(t *testing.T) {
	d := recoveryDev()
	var at sim.Time
	for p := 0; p < 3; p++ {
		done, err := d.ProgramPage(at, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		d.StampOOB(0, p, int64(100+p), uint64(7+p))
		at = done
	}
	for p := 0; p < 3; p++ {
		lpn, seq := d.OOB(0, p)
		if lpn != int64(100+p) || seq != uint64(7+p) {
			t.Fatalf("OOB(0,%d) = (%d,%d), want (%d,%d)", p, lpn, seq, 100+p, 7+p)
		}
	}
	if lpn, _ := d.OOB(0, 5); lpn != -1 {
		t.Fatalf("unwritten page OOB lpn = %d, want -1", lpn)
	}
	if _, err := d.CopyPage(at, 0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if lpn, seq := d.OOB(1, 0); lpn != 101 || seq != 8 {
		t.Fatalf("CopyPage dropped OOB: got (%d,%d), want (101,8)", lpn, seq)
	}
}

// TestCrashTruncation: a crash keeps exactly the programs that completed by
// the cut — the durable prefix — and reports the rest as lost, with
// fully-truncated blocks flagged torn.
func TestCrashTruncation(t *testing.T) {
	d := recoveryDev()
	var at sim.Time
	var dones []sim.Time
	for p := 0; p < 4; p++ {
		done, err := d.ProgramPage(at, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		d.StampOOB(0, p, int64(p), uint64(p+1))
		dones = append(dones, done)
		at = done
	}
	// Block 1 gets one program that will be entirely lost.
	lateDone, err := d.ProgramPage(at, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = lateDone

	cut := dones[1] // pages 0,1 of block 0 durable; 2,3 and block 1's page lost
	st := d.CrashAt(cut)
	if st.LostPages != 3 {
		t.Fatalf("LostPages = %d, want 3", st.LostPages)
	}
	if len(st.Torn) != 1 || st.Torn[0] != 1 {
		t.Fatalf("Torn = %v, want [1]", st.Torn)
	}
	if got := d.WrittenPages(0); got != 2 {
		t.Fatalf("block 0 written pages after crash = %d, want 2", got)
	}
	if _, err := d.ReadPage(cut, 0, 2); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read of lost page: err = %v, want ErrUnwritten", err)
	}
	if lpn, _ := d.OOB(0, 2); lpn != -1 {
		t.Fatalf("lost page kept its OOB stamp (lpn %d)", lpn)
	}
	// Survivors keep their stamps, and the truncated block keeps strict
	// sequential programming at the new frontier.
	if lpn, seq := d.OOB(0, 1); lpn != 1 || seq != 2 {
		t.Fatalf("survivor OOB = (%d,%d), want (1,2)", lpn, seq)
	}
	if _, err := d.ProgramPage(cut, 0, 3); !errors.Is(err, ErrNotSequential) {
		t.Fatalf("program past the post-crash frontier: err = %v, want ErrNotSequential", err)
	}
	if done, err := d.ProgramPage(cut, 0, 2); err != nil || done <= cut {
		t.Fatalf("program at the post-crash frontier failed: %v", err)
	}
}

// TestCrashNotBeforeIssuedErase: the model applies an erase at issue and
// cannot undo it, so a crash instant that precedes an issued erase moves up
// to it. A relocation copy whose source that erase destroyed must then be
// durable — truncating it would leave the page with no copy at all.
func TestCrashNotBeforeIssuedErase(t *testing.T) {
	d := recoveryDev()
	written, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.StampOOB(0, 0, 7, 1)
	copied, err := d.CopyPage(written, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(copied, 0); err != nil {
		t.Fatal(err)
	}

	st := d.CrashAt(written) // before the copy completed
	if st.At != copied {
		t.Fatalf("CrashStats.At = %d, want the erase's issue time %d", st.At, copied)
	}
	if st.LostPages != 0 || d.WrittenPages(1) != 1 {
		t.Fatalf("the copy was truncated (LostPages %d, block 1 holds %d pages) though its source is erased",
			st.LostPages, d.WrittenPages(1))
	}
	if lpn, seq := d.OOB(1, 0); lpn != 7 || seq != 1 {
		t.Fatalf("surviving copy's OOB = (%d,%d), want (7,1)", lpn, seq)
	}
	// A later instant is taken as given.
	if st := d.CrashAt(copied + 5); st.At != copied+5 {
		t.Fatalf("CrashStats.At = %d, want %d", st.At, copied+5)
	}
}

// TestCrashRequiresRecovery: CrashAt without EnableRecovery is a harness
// bug, not a silent no-op.
func TestCrashRequiresRecovery(t *testing.T) {
	d := New(smallGeom(), LatenciesFor(TLC))
	defer func() {
		if recover() == nil {
			t.Fatal("CrashAt without EnableRecovery did not panic")
		}
	}()
	d.CrashAt(0)
}

// TestSealedBlock: sealing closes a torn write frontier — reads still work,
// further programs are refused until the block is erased.
func TestSealedBlock(t *testing.T) {
	d := recoveryDev()
	done, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.SealBlock(0)
	if !d.IsSealed(0) {
		t.Fatal("IsSealed = false after SealBlock")
	}
	if _, err := d.ReadPage(done, 0, 0); err != nil {
		t.Fatalf("read from sealed block failed: %v", err)
	}
	if _, err := d.ProgramPage(done, 0, 1); err == nil {
		t.Fatal("program into sealed block succeeded")
	}
	eDone, err := d.EraseBlock(done, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsSealed(0) {
		t.Fatal("erase did not unseal the block")
	}
	if _, err := d.ProgramPage(eDone, 0, 0); err != nil {
		t.Fatalf("program after unsealing erase failed: %v", err)
	}
}

// TestInjectedProgramFail: with a certain-failure profile the program
// hard-fails, the block is retired but stays readable (bad != unreadable —
// the §2.1 contract the upper layers rely on for evacuation).
func TestInjectedProgramFail(t *testing.T) {
	d := recoveryDev()
	done, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.StampOOB(0, 0, 42, 1)
	d.SetInjector(fault.New(fault.Profile{Name: "certain", ProgramFailBase: 1}, 1))
	if _, err := d.ProgramPage(done, 0, 1); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("err = %v, want ErrProgramFailed", err)
	}
	if !d.IsBad(0) {
		t.Fatal("failed program did not retire the block")
	}
	if _, err := d.ReadPage(done, 0, 0); err != nil {
		t.Fatalf("read from grown-bad block failed: %v", err)
	}
	if lpn, _ := d.OOB(0, 0); lpn != 42 {
		t.Fatalf("grown-bad block lost its OOB stamp (lpn %d)", lpn)
	}
	if _, err := d.ProgramPage(done, 0, 1); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program into bad block: err = %v, want ErrBadBlock", err)
	}
	if _, err := d.EraseBlock(done, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block: err = %v, want ErrBadBlock", err)
	}
}

// TestInjectedEraseFail: a failed erase retires the block too.
func TestInjectedEraseFail(t *testing.T) {
	d := recoveryDev()
	d.SetInjector(fault.New(fault.Profile{Name: "certain", EraseFailBase: 1}, 1))
	if _, err := d.EraseBlock(0, 0); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("err = %v, want ErrEraseFailed", err)
	}
	if !d.IsBad(0) {
		t.Fatal("failed erase did not retire the block")
	}
}

// TestInjectedReadRetry: transient read faults extend the sense time;
// exhausting the ladder is ErrUncorrectable.
func TestInjectedReadRetry(t *testing.T) {
	d := recoveryDev()
	done, err := d.ProgramPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := d.ReadPage(done, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Certain transient failure with a retry budget: every read exhausts the
	// ladder, takes longer than a clean read, and reports uncorrectable.
	d.SetInjector(fault.New(fault.Profile{Name: "certain",
		ReadTransientProb: 1, ReadRetries: 4}, 1))
	slow, err := d.ReadPage(clean, 0, 0)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if slow-clean <= clean-done {
		t.Fatalf("retry ladder did not extend the sense: clean=%d retried=%d",
			clean-done, slow-clean)
	}
}
