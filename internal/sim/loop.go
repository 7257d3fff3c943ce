package sim

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run in scheduling order
	fn  func(now Time)
}

// before orders events by (at, seq). seq is unique per loop, so this is a
// total order: the sequence of pops is a function of what was scheduled and
// when, never of how the queue is laid out.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Loop executes scheduled callbacks in strict virtual-time order.
// Callbacks may schedule further callbacks; the loop runs until the event
// queue is empty or Stop is called. Two events scheduled for the same time
// run in the order they were scheduled.
//
// A closed-loop worker is expressed as a callback that performs one
// operation and reschedules itself at the operation's completion time;
// an open-loop arrival process schedules one callback per arrival.
type Loop struct {
	h       []event // binary min-heap under event.before
	now     Time
	seq     uint64
	stopped bool
	steps   uint64
	spent   bool // h[0] is the running event: the next At takes its slot
}

// NewLoop returns an empty event loop positioned at time 0.
func NewLoop() *Loop { return &Loop{} }

// Now reports the loop's current virtual time: the timestamp of the event
// being executed, or of the last event executed.
func (l *Loop) Now() Time { return l.now }

// At schedules fn to run at time t. Scheduling an event in the past
// (t < Now) is a programming error and panics: it would violate causality
// and silently corrupt latency measurements.
func (l *Loop) At(t Time, fn func(now Time)) {
	if t < l.now {
		panic("sim: event scheduled in the past")
	}
	l.seq++
	e := event{at: t, seq: l.seq, fn: fn}
	if l.spent {
		l.spent = false
		l.siftDown(e)
		return
	}
	l.push(e)
}

// push sifts e up from a new leaf. The hole moves instead of swapping, so
// each level costs one 24-byte copy, and nothing is boxed.
func (l *Loop) push(e event) {
	l.h = append(l.h, e)
	h := l.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popSpent removes the consumed root; the last leaf sifts down in its place.
// Zeroing the vacated tail slot keeps no finished closure reachable.
func (l *Loop) popSpent() {
	l.spent = false
	n := len(l.h) - 1
	e := l.h[n]
	l.h[n] = event{}
	l.h = l.h[:n]
	if n > 0 {
		l.siftDown(e)
	}
}

// siftDown puts e in the root's place and sifts it down. Any e leaves a
// valid heap; an e due before most of the queue stops near the top.
func (l *Loop) siftDown(e event) {
	h, i := l.h, 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// step runs the earliest queued event, which keeps h[0] while it runs: a
// callback that schedules pays one sift, not a pop and a push.
func (l *Loop) step() {
	l.now = l.h[0].at
	l.steps++
	l.spent = true
	l.h[0].fn(l.now)
	if l.spent {
		l.popSpent()
	}
}

// After schedules fn to run d after the loop's current time.
func (l *Loop) After(d Time, fn func(now Time)) { l.At(l.now+d, fn) }

// NextAt reports the timestamp of the earliest queued event, or false if the
// queue is empty.
func (l *Loop) NextAt() (Time, bool) {
	h := l.h
	if l.spent { // the earliest queued event is a child of the running one
		h = h[1:min(3, len(h))]
		if len(h) == 2 && h[1].before(h[0]) {
			h = h[1:]
		}
	}
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Pending reports how many events are queued; a running event is not.
func (l *Loop) Pending() int {
	if l.spent {
		return len(l.h) - 1
	}
	return len(l.h)
}

// Stop makes the in-progress Run or RunUntil return after the current event
// completes. The flag is scoped to one run: the next Run/RunUntil call clears
// it and resumes from the queue, so a Stop issued while no run is in progress
// has no effect. Remaining events stay queued.
func (l *Loop) Stop() { l.stopped = true }

// Steps reports how many events have been executed.
func (l *Loop) Steps() uint64 { return l.steps }

// Run executes events until the queue is empty or Stop is called.
// It returns the virtual time of the last event executed.
func (l *Loop) Run() Time {
	l.stopped = false
	if l.spent { // a callback panicked out of the last run
		l.popSpent()
	}
	for len(l.h) > 0 && !l.stopped {
		l.step()
	}
	return l.now
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued, and advances the clock to the deadline (so a subsequent At(t) with
// t in (lastEvent, deadline] is legal and immediate work lands after the
// window, matching a real device that sat idle until the deadline). If Stop
// fires mid-run the clock stays at the stopping event instead: events <=
// deadline may still be queued, and jumping past them would run them with a
// time already beyond their timestamps on resume.
func (l *Loop) RunUntil(deadline Time) Time {
	l.stopped = false
	if l.spent { // a callback panicked out of the last run
		l.popSpent()
	}
	for len(l.h) > 0 && !l.stopped && l.h[0].at <= deadline {
		l.step()
	}
	if !l.stopped && l.now < deadline {
		l.now = deadline
	}
	return l.now
}
