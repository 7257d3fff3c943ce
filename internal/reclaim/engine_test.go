package reclaim

import (
	"slices"
	"testing"

	"blockhead/internal/sim"
)

// The engine's scheduling rules, checked against a stack made of fakes: units
// of four pages, a copy loop that moves live pages into a sink unit outside
// the index (each copy completes 10 ticks after the last), and an erase that
// takes 100 ticks. Each test asserts one rule DESIGN.md's "Reclamation (both
// stacks)" states.

const (
	fakePages = 4
	sinkUnit  = 6 // units 6 and 7 take the copies
)

type call struct {
	at   sim.Time
	unit int
	from int64
}

type fakeStack struct {
	e      Engine
	sink   int32
	copies []call
	erases []call
	// failAfter is how many more pages a copy moves before it stops short, not
	// OK (-1: never).
	failAfter int
}

// newFake returns an engine over eight units, with live[u] pages of unit u
// mapped (pages 0..live[u]-1). No unit is in the index yet.
func newFake(live ...int) *fakeStack {
	f := &fakeStack{e: New(8, fakePages, 64), sink: sinkUnit * fakePages, failAfter: -1}
	lpn := int64(0)
	for u, n := range live {
		for p := 0; p < n; p++ {
			f.e.Bind(0, lpn, int32(u*fakePages+p))
			lpn++
		}
	}
	f.e.Copy, f.e.Erase = f.copy, f.erase
	return f
}

func (f *fakeStack) copy(at sim.Time, v int, from int64, budget int) Progress {
	f.copies = append(f.copies, call{at, v, from})
	p := Progress{Next: from, Issue: at + 1, Done: at}
	for ; p.Next < fakePages && p.Moved != budget; p.Next++ {
		src := int32(v*fakePages) + int32(p.Next)
		lpn := f.e.P2L[src]
		if lpn == Unmapped {
			continue
		}
		if f.failAfter == 0 {
			return p
		}
		f.failAfter--
		f.e.Move(lpn, src, f.sink)
		f.e.L2P[lpn] = f.sink
		f.sink++
		p.Moved++
		p.Done = at + 10*sim.Time(p.Moved)
	}
	p.Empty, p.OK = p.Next >= fakePages, true
	return p
}

func (f *fakeStack) erase(at sim.Time, v int) sim.Time {
	f.erases = append(f.erases, call{at, v, 0})
	return at + 100
}

// once is a "low" predicate that reports low n times.
func once(n int) func() bool {
	return func() bool { n--; return n >= 0 }
}

func (f *fakeStack) check(t *testing.T) {
	t.Helper()
	if err := f.e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestEraseWaitsForCopiesOnlyUnderBarrier: a whole victim's erase goes out at
// the copy loop's Issue time, or at its Done time under the crash barrier;
// Foreground returns when the later of copies and erase completes.
func TestEraseWaitsForCopiesOnlyUnderBarrier(t *testing.T) {
	for _, c := range []struct {
		barrier           bool
		eraseAt, returned sim.Time
	}{
		{false, 1001, 1101}, // issued at 1001, behind nothing; copies done at 1020
		{true, 1020, 1120},
	} {
		f := newFake(2, 4)
		f.e.Barrier = c.barrier
		f.e.Insert(0, 2)
		f.e.Insert(1, 4) // every page live: a member, never a pick
		got := f.e.Foreground(1000, once(5))
		if want := []call{{c.eraseAt, 0, 0}}; !slices.Equal(f.erases, want) {
			t.Errorf("barrier=%v: erases %v, want %v", c.barrier, f.erases, want)
		}
		if got != c.returned {
			t.Errorf("barrier=%v: Foreground returned %d, want %d", c.barrier, got, c.returned)
		}
		if _, member := f.e.Key(0); member || f.e.Valid[0] != 0 {
			t.Errorf("barrier=%v: erased unit member=%v with %d live", c.barrier, member, f.e.Valid[0])
		}
		f.check(t)
	}
}

// TestChunkEraseWaitsForEveryChunkUnderBarrier: a chunked victim's erase goes
// out when the chunk that empties it is issued, or, under the barrier, when
// the slowest copy of any of its chunks completes.
func TestChunkEraseWaitsForEveryChunkUnderBarrier(t *testing.T) {
	for _, c := range []struct {
		barrier bool
		eraseAt sim.Time
	}{
		{false, 1005},
		{true, 1020}, // the first chunk's second copy; the second chunk's is done at 1015
	} {
		f := newFake(3)
		f.e.Barrier = c.barrier
		f.e.Insert(0, 3)
		f.e.Chunk(1000, 2)
		if len(f.erases) != 0 || f.e.Victim != 0 || f.e.Cursor != 2 {
			t.Fatalf("barrier=%v: after the first chunk: erases %v, victim %d at %d",
				c.barrier, f.erases, f.e.Victim, f.e.Cursor)
		}
		f.e.Chunk(1005, 2)
		if want := []call{{c.eraseAt, 0, 0}}; !slices.Equal(f.erases, want) {
			t.Errorf("barrier=%v: erases %v, want %v", c.barrier, f.erases, want)
		}
		if f.e.Victim != -1 {
			t.Errorf("barrier=%v: victim %d still in flight", c.barrier, f.e.Victim)
		}
		f.check(t)
	}
}

// TestEmergencyFinishesInFlightVictimFirst: the in-flight incremental victim
// is out of the index, so Emergency resumes it at its cursor before any pick.
func TestEmergencyFinishesInFlightVictimFirst(t *testing.T) {
	f := newFake(3, 2, 2)
	for u, live := range []int{3, 2, 2} {
		f.e.Insert(u, live)
	}
	f.e.Chunk(1000, 1) // picks unit 1 (fewer live than unit 0, lower than unit 2)
	if f.e.Victim != 1 || f.e.Cursor != 1 {
		t.Fatalf("in flight: unit %d at %d, want unit 1 at 1", f.e.Victim, f.e.Cursor)
	}
	f.e.Emergency(2000, once(1))
	wantCopies := []call{{1000, 1, 0}, {2000, 1, 1}, {2101, 2, 0}} // unit 1's erase ends at 2101
	if !slices.Equal(f.copies, wantCopies) {
		t.Errorf("copies %v, want %v", f.copies, wantCopies)
	}
	if len(f.erases) != 2 || f.erases[0].unit != 1 || f.erases[1].unit != 2 {
		t.Errorf("erases %v, want units 1 then 2", f.erases)
	}
	if f.e.Victim != -1 {
		t.Errorf("victim %d still in flight", f.e.Victim)
	}
	f.check(t)
}

// TestFailedVictimReturnsUnderItsCurrentKey: a whole-victim copy that stops
// short ends the round and puts the victim back in the bucket of its key as
// it now stands — the part its live count does not make up (here one
// unwritten page, as a zone's tail is) plus the live pages it kept.
func TestFailedVictimReturnsUnderItsCurrentKey(t *testing.T) {
	f := newFake(2, 4)
	f.e.Insert(0, 1+2) // one unwritten page, two live
	f.e.Insert(1, 4)
	f.failAfter = 1
	calls := 0
	low := func() bool { calls++; return true }
	if got := f.e.Foreground(1000, low); got != 1000 {
		t.Errorf("Foreground returned %d after a failed victim, want 1000", got)
	}
	if calls != 1 || len(f.erases) != 0 {
		t.Errorf("after a failed victim: %d low checks, erases %v; want 1 and none", calls, f.erases)
	}
	if key, member := f.e.Key(0); !member || key != 1+1 {
		t.Errorf("failed victim: key %d member %v, want key 2 (1 unwritten + 1 live)", key, member)
	}
	f.check(t)
	if got := f.e.Pick(1000); got != 0 {
		t.Errorf("next pick %d, want the failed victim 0", got)
	}
}

// TestChunkErasesAtMostOnce: fully dead units cost no copies, and a chunk
// still erases only one of them, whatever its budget.
func TestChunkErasesAtMostOnce(t *testing.T) {
	f := newFake(0, 0, 0, 1)
	for u := 0; u < 3; u++ {
		f.e.Insert(u, 0)
	}
	f.e.Insert(3, 1)
	for i := 1; ; i++ {
		before := len(f.erases)
		f.e.Chunk(sim.Time(1000*i), 100)
		if n := len(f.erases) - before; n > 1 {
			t.Fatalf("chunk %d erased %d units", i, n)
		} else if n == 0 {
			break
		}
	}
	if len(f.erases) != 4 {
		t.Errorf("erases %v, want all four units, one per chunk", f.erases)
	}
	f.check(t)
}
