// Package sim provides the deterministic virtual-time substrate used by every
// device model and experiment in this repository.
//
// All latency and throughput numbers in the benchmarks are computed in
// virtual time: operations are timestamped with a sim.Time, hardware units
// (flash dies, channel buses) are modeled as Resources with busy-until
// semantics, and drivers are built on an event Loop that executes callbacks
// in strict time order. Nothing depends on the wall clock, so every
// experiment is reproducible bit-for-bit from its seed.
package sim

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time values.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// MaxTime is the largest representable Time.
const MaxTime = Time(1<<63 - 1)

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Resource models a hardware unit that executes one operation at a time
// (a flash die, a channel bus, a controller core). Operations acquire the
// resource for a duration; if the resource is busy the operation queues
// behind the current occupant. This busy-until model is the standard
// first-order contention model used by SSD simulators.
type Resource struct {
	busyUntil Time
}

// Acquire reserves the resource for dur starting no earlier than at.
// It returns the actual start and end times of the reservation.
func (r *Resource) Acquire(at, dur Time) (start, end Time) {
	start = Max(at, r.busyUntil)
	end = start + dur
	r.busyUntil = end
	return start, end
}

// FreeAt reports the earliest time the resource is available.
func (r *Resource) FreeAt() Time { return r.busyUntil }

// Reset makes the resource immediately available.
func (r *Resource) Reset() { r.busyUntil = 0 }

// Interrupt cancels any reservation extending past t, making the resource
// free at t. Power loss uses it: in-flight work is abandoned, so the
// resource must not stay "busy" into a future that never happened.
func (r *Resource) Interrupt(t Time) {
	if r.busyUntil > t {
		r.busyUntil = t
	}
}
