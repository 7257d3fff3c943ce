package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blockhead/internal/telemetry"
)

// failingParts builds four parts of which 1 and 2 fail. With ordered set,
// part 1 fails only after part 2 has finished, so a runner that reported
// failures in completion order would return part 2's error.
func failingParts(errs [4]error, ran *[4]bool, ordered bool) []partTask {
	secondDone := make(chan struct{})
	parts := make([]partTask, 4)
	for i := range parts {
		parts[i].run = func(Config) error {
			ran[i] = true
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
// first. A lone worker stops there, as the in-order loop always did.
func TestRunPartsReturnsFirstErrorInPartOrder(t *testing.T) {
	errs := [4]error{1: errors.New("part 1"), 2: errors.New("part 2")}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		var ran [4]bool
		err := runParts(Config{Shards: workers}, failingParts(errs, &ran, workers > 1)...)
		if err != errs[1] {
			t.Errorf("workers=%d: runParts returned %v, want part 1's error", workers, err)
		}
		if workers == 1 && (ran[2] || ran[3]) {
			t.Errorf("one worker ran on past the first failure: ran = %v", ran)
		}
	}
}

// TestRunPartsReraisesPanic: a part's panic surfaces on the caller's
// goroutine with its original value, not as a crashed worker.
func TestRunPartsReraisesPanic(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("workers=%d: recovered %v, want the part's panic value", workers, r)
				}
			}()
			err := runParts(Config{Shards: workers},
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
		out := make([]rebaseProbe, len(counts))
		var parts []partTask
		for i, n := range counts {
			parts = append(parts, measuringPart(&out[i], n))
		}
		if err := runParts(Config{Shards: workers}, parts...); err != nil {
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
	cfg := quickCfg
	cfg.Shards = 2
	rep, err := e.Run(cfg)
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
