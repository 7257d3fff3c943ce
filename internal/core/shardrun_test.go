package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
	"blockhead/internal/telemetry/exemplar"
)

// setWorkers lets runParts use up to n workers for the rest of t: the worker
// count derives from GOMAXPROCS, restored when t ends. Reports are
// worker-count invariant, so the setting cannot leak into a result.
func setWorkers(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// failingParts builds n parts of which 1 and 2 fail. With ordered set,
// part 1 fails only after part 2 has finished, so a runner that reported
// failures in completion order would return part 2's error.
func failingParts(errs []error, ran []atomic.Bool, ordered bool) []partTask {
	secondDone := make(chan struct{})
	parts := make([]partTask, len(errs))
	for i := range parts {
		parts[i].run = func(Config) error {
			ran[i].Store(true)
			switch {
			case i == 1 && ordered:
				<-secondDone
			case i == 2:
				defer close(secondDone)
			}
			return errs[i]
		}
	}
	return parts
}

// TestRunPartsReturnsFirstErrorInPartOrder: whichever part fails first on
// the clock, the caller sees the failure a one-at-a-time run would have hit
// first, and every part before it ran. A lone worker stops there, as the
// in-order loop always did.
func TestRunPartsReturnsFirstErrorInPartOrder(t *testing.T) {
	errs := make([]error, 10)
	errs[1], errs[2] = errors.New("part 1"), errors.New("part 2")
	for workers := 1; workers <= 8; workers++ {
		setWorkers(t, workers)
		ran := make([]atomic.Bool, len(errs))
		err := runParts(Config{}, failingParts(errs, ran, workers > 1)...)
		if err != errs[1] {
			t.Errorf("workers=%d: runParts returned %v, want part 1's error", workers, err)
		}
		if !ran[0].Load() || !ran[1].Load() {
			t.Errorf("workers=%d: a part before the first failure did not run", workers)
		}
		if workers == 1 {
			for i := 2; i < len(ran); i++ {
				if ran[i].Load() {
					t.Errorf("one worker ran part %d, past the first failure", i)
				}
			}
		}
	}
}

// TestRunPartsSlowPartHoldsOneWorker: workers claim parts from one cursor,
// so while part 0 runs long, the other worker takes every later part. A
// runner that dealt parts out in advance (part 2 to part 0's worker) would
// leave part 0 waiting for a part queued behind it.
func TestRunPartsSlowPartHoldsOneWorker(t *testing.T) {
	setWorkers(t, 2)
	const n = 6
	var done atomic.Int32
	allDone := make(chan struct{})
	parts := make([]partTask, n)
	parts[0].run = func(Config) error {
		select {
		case <-allDone:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("parts 1..%d finished %d times while part 0 ran", n-1, done.Load())
		}
	}
	for i := 1; i < n; i++ {
		parts[i].run = func(Config) error {
			if done.Add(1) == n-1 {
				close(allDone)
			}
			return nil
		}
	}
	if err := runParts(Config{}, parts...); err != nil {
		t.Error(err)
	}
}

// overlapParts builds n parts that each declare bytes and, once running,
// wait up to wait for another part to be running beside them; overlapped
// reports whether two ever were.
func overlapParts(n int, bytes int64, wait time.Duration) (parts []partTask, overlapped func() bool) {
	var running atomic.Int32
	var once sync.Once
	met := make(chan struct{})
	parts = make([]partTask, n)
	for i := range parts {
		parts[i] = partTask{bytes: bytes, run: func(Config) error {
			if running.Add(1) > 1 {
				once.Do(func() { close(met) })
			}
			defer running.Add(-1)
			select {
			case <-met:
			case <-time.After(wait):
			}
			return nil
		}}
	}
	return parts, func() bool {
		select {
		case <-met:
			return true
		default:
			return false
		}
	}
}

// TestRunPartsResidentBytesBound: parts that each declare more than half
// the resident budget never run beside one another, however many cores
// there are; parts that store no data do.
func TestRunPartsResidentBytesBound(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		setWorkers(t, workers)
		parts, overlapped := overlapParts(2, residentBudget/2+1, 50*time.Millisecond)
		if err := runParts(Config{}, parts...); err != nil {
			t.Fatal(err)
		}
		if overlapped() {
			t.Errorf("GOMAXPROCS(%d): two parts of %d bytes each ran at once under a %d-byte budget",
				workers, residentBudget/2+1, residentBudget)
		}
	}
	setWorkers(t, 2)
	parts, overlapped := overlapParts(2, 0, 10*time.Second)
	if err := runParts(Config{}, parts...); err != nil {
		t.Fatal(err)
	}
	if !overlapped() {
		t.Error("GOMAXPROCS(2): two zero-byte parts never ran at once")
	}
}

// TestPartWorkers pins the derivation: clamp(residentBudget / largest
// declared bytes, 1, min(GOMAXPROCS, parts)).
func TestPartWorkers(t *testing.T) {
	sized := func(bytes ...int64) []partTask {
		parts := make([]partTask, len(bytes))
		for i, b := range bytes {
			parts[i].bytes = b
		}
		return parts
	}
	for _, tc := range []struct {
		procs int
		parts []partTask
		want  int
	}{
		{procs: 2, parts: sized(0, 0, 0, 0), want: 2},
		{procs: 8, parts: sized(0, 0, 0), want: 3},
		{procs: 1, parts: sized(0, 0), want: 1},
		{procs: 4, parts: sized(residentBudget/4, 0, 0, 0, 0), want: 4},
		{procs: 8, parts: sized(residentBudget/3, 0, 0, 0, 0), want: 3},
		{procs: 8, parts: sized(0, residentBudget/2+1), want: 1},
		{procs: 8, parts: sized(2*residentBudget, 0), want: 1},
		{procs: 4, parts: sized(), want: 1},
	} {
		setWorkers(t, tc.procs)
		if got := partWorkers(tc.parts); got != tc.want {
			t.Errorf("GOMAXPROCS(%d), %d parts: partWorkers = %d, want %d", tc.procs, len(tc.parts), got, tc.want)
		}
	}
}

// TestRunPartsDropsFinishedPart: on one worker, what part 0 built is
// garbage by the time part 1 starts, even what it hung on its session the
// way every attributed stack does (the reservoir's device-snapshot source).
// runParts keeps a finished part's result slot and measured-IO count only.
func TestRunPartsDropsFinishedPart(t *testing.T) {
	setWorkers(t, 1)
	var stack weak.Pointer[[1 << 20]byte]
	var live bool
	err := runParts(Config{},
		partTask{run: func(cfg Config) error {
			dev := new([1 << 20]byte)
			stack = weak.Make(dev)
			exemplarArm(cfg, attrProbe(cfg), "part 0", critpath.PredictOpts{},
				func(sim.Time, *exemplar.DevSnap) { dev[0]++ })
			return nil
		}},
		partTask{run: func(Config) error {
			runtime.GC()
			live = stack.Value() != nil
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("part 0's stack was still reachable when part 1 started")
	}
}

// TestRunPartsReraisesPanic: a part's panic surfaces on the caller's
// goroutine with its original value, not as a crashed worker.
func TestRunPartsReraisesPanic(t *testing.T) {
	boom := errors.New("boom")
	for workers := 1; workers <= 8; workers++ {
		setWorkers(t, workers)
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("workers=%d: recovered %v, want the part's panic value", workers, r)
				}
			}()
			err := runParts(Config{},
				partTask{run: func(Config) error { return nil }},
				partTask{run: func(Config) error { panic(boom) }},
				partTask{run: func(Config) error { return errors.New("a later part's error") }})
			t.Errorf("workers=%d: runParts returned %v, want a panic", workers, err)
		}()
	}
}

// rebaseProbe is a part result that records the offset it was rebased by.
type rebaseProbe struct{ delta uint64 }

func (r *rebaseProbe) rebaseSeqs(delta uint64) { r.delta = delta }

// measuringPart records n measured IOs on its session's sink; n < 0 never
// asks for a sink at all (a part with no attributed stack).
func measuringPart(out *rebaseProbe, n int) partTask {
	return part(out, func(cfg Config) (rebaseProbe, error) {
		if n < 0 {
			return rebaseProbe{}, nil
		}
		sink := attrProbe(cfg).Attribution()
		for i := 0; i < n; i++ {
			sink.BeginTenant(telemetry.OpRead, 0, 0)
			sink.End(0)
		}
		return rebaseProbe{}, nil
	})
}

// TestRunPartsRebaseOffsets: part k is rebased by the measured-IO count of
// parts 0..k-1 — uneven counts, a part whose sink records nothing, and a
// part that never creates a sink — at every worker count.
func TestRunPartsRebaseOffsets(t *testing.T) {
	counts := []int{3, 0, 5, -1, 2}
	want := []uint64{0, 3, 3, 8, 8}
	for _, workers := range []int{1, 2, 4} {
		setWorkers(t, workers)
		out := make([]rebaseProbe, len(counts))
		var parts []partTask
		for i, n := range counts {
			parts = append(parts, measuringPart(&out[i], n))
		}
		if err := runParts(Config{}, parts...); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].delta != want[i] {
				t.Errorf("workers=%d: part %d rebased by %d, want %d", workers, i, out[i].delta, want[i])
			}
		}
	}
}

// TestExplainResolvesSecondPartSeq ties the two numberings together: a
// report numbers the second stack's IOs by rebasing its private session,
// an explain run numbers them on one shared sink, and a sequence number
// taken from the former must name the same IO in the latter.
func TestExplainResolvesSecondPartSeq(t *testing.T) {
	e, _ := ByID("E6")
	setWorkers(t, 2)
	rep, err := e.Run(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	host := rep.Exemplars[1]
	worst := host.Snap.TopK(1)
	if len(worst) == 0 {
		t.Fatalf("section %q lists no exemplars", host.Name)
	}
	first := rep.Exemplars[0].Snap.TopK(1)
	if len(first) == 0 || worst[0].Seq <= first[0].Seq {
		t.Fatalf("second part's worst IO has seq %d, not past the first part's (%v)", worst[0].Seq, first)
	}
	transcript, err := Explain(quickCfg, "E6", worst[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stack: " + host.Name + "\n",
		fmt.Sprintf("seq=%d ", worst[0].Seq),
		fmt.Sprintf("total=%.1fus\n", worst[0].Total.Micros()),
	} {
		if !strings.Contains(transcript, want) {
			t.Errorf("transcript lacks %q:\n%s", want, transcript)
		}
	}
}
