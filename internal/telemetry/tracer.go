package telemetry

import "blockhead/internal/sim"

// Track processes: the Chrome trace-event exporter renders one process per
// hardware layer, with one thread (track) per unit inside it. A LUN's track
// shows its busy intervals; a zone's track shows its state transitions and
// writes; the FTL/host tracks show GC phases.
const (
	ProcFlashChan int32 = 1 // tid = channel index
	ProcFlashLUN  int32 = 2 // tid = LUN index (channel x die x plane)
	ProcFTL       int32 = 3 // conventional FTL control plane; tid 0 = GC
	ProcHostFTL   int32 = 4 // host-side translation layer; tid 0 = reclaim
	ProcZone      int32 = 5 // tid = zone index
)

// Event is one recorded trace event. Dur < 0 marks an instant event.
type Event struct {
	Name    string
	Cat     string
	Start   sim.Time
	Dur     sim.Time
	PID     int32
	TID     int32
	ArgName string // optional single numeric argument
	Arg     int64
}

// Instant reports whether the event is an instant (zero-duration marker).
func (e Event) Instant() bool { return e.Dur < 0 }

// DefaultTraceEvents is the default ring capacity (~64k events).
const DefaultTraceEvents = 1 << 16

// Tracer records structured events into a bounded ring buffer. When the
// ring fills, the oldest events are overwritten and counted as dropped, so
// a trace always holds the most recent window of a run. The nil Tracer is
// a valid no-op and every record method is allocation-free.
type Tracer struct {
	ring   []Event
	next   int
	total  uint64
	procs  map[int32]string
	tracks map[int64]string // pid<<32|tid -> name
}

// NewTracer returns a tracer holding at most capacity events (rounded up to
// 1; capacity <= 0 selects DefaultTraceEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{
		ring:   make([]Event, 0, capacity),
		procs:  make(map[int32]string),
		tracks: make(map[int64]string),
	}
}

func trackKey(pid, tid int32) int64 { return int64(pid)<<32 | int64(uint32(tid)) }

func (t *Tracer) record(e Event) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
	}
	t.total++
}

// Span records a duration event [start, end) on the given track. No-op on a
// nil receiver; allocation-free otherwise.
func (t *Tracer) Span(pid, tid int32, cat, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(Event{Name: name, Cat: cat, Start: start, Dur: end - start, PID: pid, TID: tid})
}

// SpanArg records a duration event with one named numeric argument.
func (t *Tracer) SpanArg(pid, tid int32, cat, name string, start, end sim.Time, argName string, arg int64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(Event{Name: name, Cat: cat, Start: start, Dur: end - start,
		PID: pid, TID: tid, ArgName: argName, Arg: arg})
}

// Instant records a zero-duration marker event on the given track.
func (t *Tracer) Instant(pid, tid int32, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Start: at, Dur: -1, PID: pid, TID: tid})
}

// NameProcess labels a process (layer) for the exporter. Safe to call at
// probe-attach time; no-op on a nil receiver.
func (t *Tracer) NameProcess(pid int32, name string) {
	if t == nil {
		return
	}
	t.procs[pid] = name
}

// NameTrack labels one track (thread) inside a process.
func (t *Tracer) NameTrack(pid, tid int32, name string) {
	if t == nil {
		return
	}
	t.tracks[trackKey(pid, tid)] = name
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Dropped reports how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
