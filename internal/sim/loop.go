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
	l.push(event{at: t, seq: l.seq, fn: fn})
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

// pop removes the earliest event: the last leaf sifts down from the root.
// The vacated tail slot is zeroed so the backing array does not keep the
// closure of an event that already ran (and whatever it captured) reachable.
func (l *Loop) pop() event {
	h := l.h
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{}
	h = h[:n]
	l.h = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return top
}

// step runs the earliest queued event.
func (l *Loop) step() {
	e := l.pop()
	l.now = e.at
	l.steps++
	e.fn(e.at)
}

// After schedules fn to run d after the loop's current time.
func (l *Loop) After(d Time, fn func(now Time)) { l.At(l.now+d, fn) }

// NextAt reports the timestamp of the earliest queued event, or false if the
// queue is empty.
func (l *Loop) NextAt() (Time, bool) {
	if len(l.h) == 0 {
		return 0, false
	}
	return l.h[0].at, true
}

// Pending reports how many events are queued.
func (l *Loop) Pending() int { return len(l.h) }

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
	for len(l.h) > 0 && !l.stopped && l.h[0].at <= deadline {
		l.step()
	}
	if !l.stopped && l.now < deadline {
		l.now = deadline
	}
	return l.now
}
