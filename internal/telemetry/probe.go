// Package telemetry is the observability substrate of the device models:
// per-IO latency attribution (AttrSink, one Record per measured IO that
// every layer charges and that folds such as critpath and exemplar read
// once), per-tenant blame and SLO windows, and the flight recorder of
// recent device events. Counts, wear and zone state are not kept here:
// each device reports them through its own accessors.
//
// Everything is nil-safe and allocation-free: device models hold handles
// that are nil on an un-instrumented run, and every method takes the no-op
// fast path on a nil receiver. TestDisabledPathZeroAllocs pins both the
// disabled and the armed path at 0 allocs/op.
//
// The simulator is single-threaded (one virtual-time event loop), so
// nothing here locks; attach probes before the drive starts.
package telemetry

import "blockhead/internal/sim"

// Probe bundles the per-IO latency-attribution sink and the flight recorder
// into the single handle device models accept. A nil *Probe means
// "telemetry off": devices resolve nil handles through it and take the
// zero-cost path on every op.
type Probe struct {
	Attr      *AttrSink
	FlightRec *Flight
}

// NewProbe builds an armed probe. The attribution sink's violation hook is
// pre-wired to the flight recorder, so any attribution-invariant violation
// dumps the recent device history automatically.
func NewProbe() *Probe {
	p := &Probe{Attr: NewAttrSink(), FlightRec: NewFlight(0)}
	p.Attr.OnViolation = func(at sim.Time) {
		p.FlightRec.Violation(at, FlightAttrViolation, -1, "attribution_invariant", 0)
	}
	return p
}

// Attribution returns the latency-attribution sink, or nil on a nil probe —
// the nil-safe accessor device SetProbe implementations use.
func (p *Probe) Attribution() *AttrSink {
	if p == nil {
		return nil
	}
	return p.Attr
}

// Flight returns the flight recorder, or nil on a nil probe.
func (p *Probe) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.FlightRec
}
