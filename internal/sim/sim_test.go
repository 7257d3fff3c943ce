package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Millisecond.Micros() != 1000 {
		t.Errorf("Millisecond.Micros() = %v, want 1000", Millisecond.Micros())
	}
	if (2 * Second).Millis() != 2000 {
		t.Errorf("(2s).Millis() = %v, want 2000", (2 * Second).Millis())
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min wrong")
	}
}

func TestResourceIdle(t *testing.T) {
	var r Resource
	start, end := r.Acquire(100, 50)
	if start != 100 || end != 150 {
		t.Errorf("Acquire on idle resource: got (%d,%d), want (100,150)", start, end)
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	r.Acquire(0, 100)
	// Second op arrives while the first is in flight: it must queue.
	start, end := r.Acquire(10, 50)
	if start != 100 || end != 150 {
		t.Errorf("queued op: got (%d,%d), want (100,150)", start, end)
	}
	// Third op arrives after the resource went idle: no queueing.
	start, end = r.Acquire(1000, 5)
	if start != 1000 || end != 1005 {
		t.Errorf("idle op: got (%d,%d), want (1000,1005)", start, end)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(0, 100)
	r.Reset()
	if r.FreeAt() != 0 {
		t.Errorf("FreeAt after Reset = %d, want 0", r.FreeAt())
	}
}

func TestAcquireAll(t *testing.T) {
	var a, b Resource
	a.Acquire(0, 100)
	b.Acquire(0, 30)
	start, end := AcquireAll(50, 10, &a, &b)
	if start != 100 || end != 110 {
		t.Errorf("AcquireAll: got (%d,%d), want (100,110)", start, end)
	}
	if a.FreeAt() != 110 || b.FreeAt() != 110 {
		t.Errorf("AcquireAll must reserve all resources: a=%d b=%d", a.FreeAt(), b.FreeAt())
	}
}

// Property: a sequence of acquisitions never overlaps and never starts before
// its request time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(durs []uint16, gaps []uint16) bool {
		var r Resource
		var at, prevEnd Time
		n := len(durs)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			at += Time(gaps[i])
			start, end := r.Acquire(at, Time(durs[i]))
			if start < at || start < prevEnd || end != start+Time(durs[i]) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30, func(Time) { got = append(got, 3) })
	l.At(10, func(Time) { got = append(got, 1) })
	l.At(20, func(Time) { got = append(got, 2) })
	end := l.Run()
	if end != 30 {
		t.Errorf("Run returned %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
}

func TestLoopSameTimeFIFO(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5, func(Time) { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestLoopReschedule(t *testing.T) {
	l := NewLoop()
	count := 0
	var step func(now Time)
	step = func(now Time) {
		count++
		if count < 5 {
			l.At(now+10, step)
		}
	}
	l.At(0, step)
	end := l.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 40 {
		t.Errorf("end = %d, want 40", end)
	}
}

func TestLoopPastEventPanics(t *testing.T) {
	l := NewLoop()
	l.At(100, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		l.At(50, func(Time) {})
	})
	l.Run()
}

func TestLoopStop(t *testing.T) {
	l := NewLoop()
	ran := 0
	l.At(1, func(Time) { ran++; l.Stop() })
	l.At(2, func(Time) { ran++ })
	l.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop must halt the loop)", ran)
	}
	// The remaining event is still queued and runs on the next Run.
	l.Run()
	if ran != 2 {
		t.Errorf("ran = %d, want 2 after resuming", ran)
	}
}

// Stop is scoped to the in-progress run: a Stop issued while no run is in
// progress is cleared by the next Run call, which executes normally.
func TestLoopStopBeforeRunIsCleared(t *testing.T) {
	l := NewLoop()
	ran := 0
	l.At(1, func(Time) { ran++ })
	l.Stop()
	l.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop outside a run must not stick)", ran)
	}
}

// Stop during an event halts before the next event even when that event
// shares the stopping event's timestamp: "after the current event" means
// exactly one more callback never runs early.
func TestLoopStopSkipsSameTimeSuccessors(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(5, func(Time) { got = append(got, 1); l.Stop() })
	l.At(5, func(Time) { got = append(got, 2) })
	end := l.Run()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Stop did not halt before same-time successor: %v", got)
	}
	if end != 5 || l.Now() != 5 {
		t.Errorf("stopped at time %d (Now=%d), want 5", end, l.Now())
	}
	l.Run()
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("resume did not run the deferred same-time event: %v", got)
	}
}

// Stop during RunUntil must leave the clock at the stopping event, not at
// the deadline: events <= deadline can still be queued, and advancing past
// them would hand their callbacks a non-monotonic clock on resume (and make
// legal At() calls panic as "in the past").
func TestLoopStopDuringRunUntilKeepsClock(t *testing.T) {
	l := NewLoop()
	var ran []Time
	l.At(10, func(now Time) { ran = append(ran, now); l.Stop() })
	l.At(20, func(now Time) { ran = append(ran, now) })
	end := l.RunUntil(25)
	if end != 10 || l.Now() != 10 {
		t.Fatalf("RunUntil stopped at %d (Now=%d), want clock held at 10", end, l.Now())
	}
	// The held clock keeps causality intact: scheduling between the stop
	// point and the deadline is legal, and resume runs everything in order.
	l.At(15, func(now Time) { ran = append(ran, now) })
	l.Run()
	want := []Time{10, 15, 20}
	if len(ran) != len(want) {
		t.Fatalf("resume ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("resume ran %v, want %v", ran, want)
		}
	}
}

// An event scheduled exactly at the deadline is inside the window.
func TestLoopRunUntilExactDeadline(t *testing.T) {
	l := NewLoop()
	ran := 0
	l.At(25, func(Time) { ran++ })
	end := l.RunUntil(25)
	if ran != 1 {
		t.Errorf("event at the exact deadline did not run")
	}
	if end != 25 || l.Now() != 25 {
		t.Errorf("RunUntil(25) returned %d (Now=%d), want 25", end, l.Now())
	}
}

// RunUntil with an empty window still advances the clock to the deadline.
func TestLoopRunUntilIdleAdvancesClock(t *testing.T) {
	l := NewLoop()
	l.At(100, func(Time) {})
	if end := l.RunUntil(40); end != 40 {
		t.Errorf("idle RunUntil(40) returned %d, want 40", end)
	}
	if l.Now() != 40 {
		t.Errorf("Now() = %d, want 40", l.Now())
	}
}

// The panic message is part of the contract.
func TestLoopPastEventPanicMessage(t *testing.T) {
	l := NewLoop()
	l.At(100, func(now Time) {
		defer func() {
			r := recover()
			msg, ok := r.(string)
			if !ok || msg != "sim: event scheduled in the past" {
				t.Errorf("panic = %v, want %q", r, "sim: event scheduled in the past")
			}
		}()
		l.At(50, func(Time) {})
	})
	l.Run()
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		l.At(at, func(now Time) { got = append(got, now) })
	}
	l.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(got))
	}
	if l.Now() != 25 {
		t.Errorf("Now() = %d, want 25", l.Now())
	}
	l.Run()
	if len(got) != 4 {
		t.Errorf("resume ran %d events total, want 4", len(got))
	}
}

func TestLoopAfter(t *testing.T) {
	l := NewLoop()
	var at Time
	l.At(100, func(now Time) {
		l.After(50, func(now Time) { at = now })
	})
	l.Run()
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
}

// Property: Loop executes events in nondecreasing time order regardless of
// scheduling order.
func TestLoopTimeOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		l := NewLoop()
		var seen []Time
		for _, tt := range times {
			tt := Time(tt)
			l.At(tt, func(now Time) { seen = append(seen, now) })
		}
		l.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
