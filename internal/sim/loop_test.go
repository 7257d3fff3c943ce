package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the specification the heap must match: the pending events
// kept as a list sorted by (at, seq), popped from the front.
type refQueue struct {
	pending []refEvent
	seq     uint64
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q *refQueue) push(at Time, id int) {
	q.seq++
	e := refEvent{at: at, seq: q.seq, id: id}
	i, _ := slices.BinarySearchFunc(q.pending, e, func(a, b refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	q.pending = slices.Insert(q.pending, i, e)
}

func (q *refQueue) pop() refEvent {
	e := q.pending[0]
	q.pending = q.pending[1:]
	return e
}

// loopDiff drives a Loop and a refQueue with the same schedule. Every event
// carries an id whose low bits say what its callback does, so both sides
// derive the same follow-on events without sharing a random stream.
type loopDiff struct {
	t       *testing.T
	loop    *Loop
	ref     refQueue
	nextID  int
	budget  int    // follow-on events still allowed
	spread  Time   // follow-on events land in [now, now+spread)
	stopAt  uint64 // call Stop when Steps reaches this
	stopped bool   // Stop was called during the current run
}

// schedule queues event id at time at on both sides.
func (d *loopDiff) schedule(at Time) {
	id := d.nextID
	d.nextID++
	d.ref.push(at, id)
	d.loop.At(at, func(now Time) { d.ran(id, now) })
}

// ran checks that the loop ran what the reference says is next, then
// schedules the event's children. The queries are compared with the
// reference inside the callback too: before its first At (when the running
// event still holds the heap's root) and after every At.
func (d *loopDiff) ran(id int, now Time) {
	want := d.ref.pop()
	if want.id != id || want.at != now || d.loop.Now() != now {
		d.t.Fatalf("step %d: loop ran event %d at %d (Now=%d), reference says event %d at %d",
			d.loop.Steps(), id, now, d.loop.Now(), want.id, want.at)
	}
	d.check()
	// A cheap hash of the id picks 0-3 children and their offsets; offset 0
	// (a child at now) is common so ties with already-queued events occur.
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for kids := int(h>>60) % 4; kids > 0 && d.budget > 0; kids-- {
		d.budget--
		h = h*6364136223846793005 + 1442695040888963407
		d.schedule(now + Time(h>>33)%d.spread)
		if d.loop.Now() != now {
			d.t.Fatalf("step %d: Now moved from %d to %d inside a callback", d.loop.Steps(), now, d.loop.Now())
		}
		d.check()
	}
	if d.loop.Steps() == d.stopAt {
		d.loop.Stop()
		d.stopped = true
	}
}

// check compares the observable queue state of both sides.
func (d *loopDiff) check() {
	if got, want := d.loop.Pending(), len(d.ref.pending); got != want {
		d.t.Fatalf("Pending = %d, reference holds %d", got, want)
	}
	at, ok := d.loop.NextAt()
	if !ok {
		if len(d.ref.pending) != 0 {
			d.t.Fatalf("NextAt reports an empty queue, reference holds %d", len(d.ref.pending))
		}
		return
	}
	if want := d.ref.pending[0].at; at != want {
		d.t.Fatalf("NextAt = %d, reference says %d", at, want)
	}
}

// TestLoopMatchesSortedReference is the differential property test for the
// event heap: random schedules with heavy same-time ties, callbacks that
// schedule further events (including at now), a Stop in the middle of a run,
// RunUntil windows and a final Run, compared event by event with a reference
// that sorts by (at, seq).
func TestLoopMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{42, 7, 13} {
		for _, depth := range []int{1, 2, 3, 33, 1024, 4096} {
			t.Run(fmt.Sprintf("seed%d/depth%d", seed, depth), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// Few distinct timestamps relative to the depth: most
				// events tie with several others.
				spread := Time(depth/4 + 2)
				d := &loopDiff{t: t, loop: NewLoop(), budget: 3 * depth, spread: spread}
				for i := 0; i < depth; i++ {
					d.schedule(Time(rng.Int63n(int64(spread))))
				}
				d.stopAt = uint64(depth/2 + 1)
				d.check()

				// Windows first, so resumption after a deadline and after a
				// Stop are both exercised, then drain.
				for w := Time(1); w < spread; w += 1 + spread/5 {
					d.stopped = false
					end := d.loop.RunUntil(w)
					if end != d.loop.Now() || (!d.stopped && end != w) {
						t.Fatalf("RunUntil(%d) returned %d (Now=%d, stopped=%v)", w, end, d.loop.Now(), d.stopped)
					}
					if at, ok := d.loop.NextAt(); ok && !d.stopped && at <= w {
						t.Fatalf("RunUntil(%d) left an event at %d queued", w, at)
					}
					d.check()
					// Scheduling at the new now must be legal and run next
					// among its timestamp's later arrivals.
					d.schedule(d.loop.Now())
					d.check()
				}
				for d.loop.Pending() > 0 {
					d.loop.Run()
					d.check()
				}
				if len(d.ref.pending) != 0 {
					t.Fatalf("loop drained with %d reference events left", len(d.ref.pending))
				}
				if got := d.loop.Steps(); got != uint64(d.nextID) {
					t.Fatalf("Steps = %d, scheduled %d events", got, d.nextID)
				}
			})
		}
	}
}

// TestLoopPopReleasesClosure pins that a finished event's slot in the
// backing array is zeroed: the array outlives the event, and a stale fn
// there would keep everything the closure captured reachable.
func TestLoopPopReleasesClosure(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 8; i++ {
		l.At(Time(i), func(Time) {})
	}
	l.Run()
	for i, e := range l.h[:cap(l.h)] {
		if e.fn != nil {
			t.Errorf("slot %d still holds a callback after its event ran", i)
		}
	}
}

// TestLoopPanicDoesNotRerun: a callback that panics out of a run leaves its
// event consumed. Pending and NextAt must not count it, and neither the
// next Run or RunUntil nor an At issued before them may run it again,
// whether the callback scheduled something before it panicked or not.
func TestLoopPanicDoesNotRerun(t *testing.T) {
	resumes := []struct {
		name   string
		resume func(l *Loop, record func(Time))
	}{
		{"Run", func(l *Loop, _ func(Time)) { l.Run() }},
		{"RunUntil", func(l *Loop, _ func(Time)) { l.RunUntil(100) }},
		{"At-then-Run", func(l *Loop, record func(Time)) { l.At(4, record); l.Run() }},
	}
	for _, r := range resumes {
		for _, schedules := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/schedules=%v", r.name, schedules), func(t *testing.T) {
				l := NewLoop()
				var ran []Time
				record := func(now Time) { ran = append(ran, now) }
				panics := 0
				l.At(1, func(now Time) {
					ran = append(ran, now)
					panics++
					if schedules {
						l.At(5, record)
					}
					panic("callback failed")
				})
				l.At(2, record)
				l.At(3, record)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("Run returned without the callback's panic")
						}
					}()
					l.Run()
				}()
				wantPending := 2
				if schedules {
					wantPending = 3
				}
				if got := l.Pending(); got != wantPending {
					t.Errorf("Pending after the panic = %d, want %d", got, wantPending)
				}
				if at, ok := l.NextAt(); !ok || at != 2 {
					t.Errorf("NextAt after the panic = %d, %v, want 2, true", at, ok)
				}
				if l.Now() != 1 || l.Steps() != 1 {
					t.Errorf("after the panic Now = %d, Steps = %d, want 1, 1", l.Now(), l.Steps())
				}
				r.resume(l, record)
				if panics != 1 {
					t.Fatalf("the panicking event ran %d times", panics)
				}
				want := []Time{1, 2, 3}
				if r.name == "At-then-Run" {
					want = append(want, 4)
				}
				if schedules {
					want = append(want, 5)
				}
				if !slices.Equal(ran, want) {
					t.Errorf("ran events at %v, want %v", ran, want)
				}
				if l.Pending() != 0 || l.Steps() != uint64(len(want)) {
					t.Errorf("after the resume Pending = %d, Steps = %d, want 0, %d", l.Pending(), l.Steps(), len(want))
				}
			})
		}
	}
}

// selfRescheduling fills l to depth with events that each schedule their
// successor depth ticks later, so the queue stays at depth for ever.
func selfRescheduling(l *Loop, depth int) {
	var step func(now Time)
	step = func(now Time) { l.At(now+Time(depth), step) }
	for i := 0; i < depth; i++ {
		l.At(Time(i), step)
	}
}

// mixedRW is the mixed_rw workload's shape: 32 closed-loop writers whose
// completions lie far ahead (each reschedules 160 ticks on) and one Poisson
// read stream whose next arrival comes before nearly all of them (1 tick
// on). Five events in six are reads, as in mixed_rw.
func mixedRW(l *Loop) {
	var write, read func(now Time)
	write = func(now Time) { l.At(now+160, write) }
	read = func(now Time) { l.At(now+1, read) }
	for i := 0; i < 32; i++ {
		l.At(Time(5*i), write)
	}
	l.At(0, read)
}

// forking fills l with depth events that each schedule two (their successor
// depth ticks later and a leaf halfway there); a leaf schedules nothing.
func forking(l *Loop, depth int) {
	leaf := func(Time) {}
	var fork func(now Time)
	fork = func(now Time) {
		l.At(now+Time(depth), fork)
		l.At(now+Time(depth/2), leaf)
	}
	for i := 0; i < depth; i++ {
		l.At(Time(i), fork)
	}
}

// loopShapes are the steady-state schedules the allocation pin and the
// benchmark run. depth33 and depth1024 are FIFOs: every rescheduled event
// lands at the bottom of the heap.
var loopShapes = []struct {
	name string
	fill func(l *Loop)
}{
	{"depth33", func(l *Loop) { selfRescheduling(l, 33) }},
	{"depth1024", func(l *Loop) { selfRescheduling(l, 1024) }},
	{"mixed33", mixedRW},
	{"fork33", func(l *Loop) { forking(l, 33) }},
}

// TestLoopSteadyStateDoesNotAllocate pins the event path's cost: once the
// queue has reached its depth, scheduling and dispatching allocate nothing,
// whether a callback schedules one event, none or two.
func TestLoopSteadyStateDoesNotAllocate(t *testing.T) {
	for _, shape := range loopShapes {
		l := NewLoop()
		shape.fill(l)
		deadline := Time(4096) // one warm-up window grows the array to its depth
		l.RunUntil(deadline)
		allocs := testing.AllocsPerRun(100, func() {
			deadline += 64
			l.RunUntil(deadline)
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per 64 ticks in steady state, want 0", shape.name, allocs)
		}
	}
}

// BenchmarkLoop is the sim.Loop rung of the layer ladder: the dispatch of
// one event and whatever its callback schedules, in steady state. depth33 is
// a FIFO at mixed_rw's depth (32 closed-loop writers and one Poisson
// stream); depth1024 shows the log-depth growth; mixed33 is mixed_rw's
// shape, where most events reschedule ahead of nearly the whole queue;
// fork33's callbacks schedule two events or none.
func BenchmarkLoop(b *testing.B) {
	for _, shape := range loopShapes {
		b.Run(shape.name, func(b *testing.B) {
			l := NewLoop()
			shape.fill(l)
			l.RunUntil(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
		})
	}
}
