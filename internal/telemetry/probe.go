package telemetry

import "blockhead/internal/sim"

// Probe bundles a metrics registry, a tracer, and a latency-attribution
// sink into the single handle device models accept. A nil *Probe means
// "telemetry off": devices resolve nil metric handles through it and take
// the zero-cost path on every op.
type Probe struct {
	Metrics *Registry
	Trace   *Tracer
	Attr    *AttrSink

	// HeatSrc collects the spatial (heatmap) snapshot sources registered by
	// device models; FlightRec is the shared flight recorder they append to.
	HeatSrc   *HeatSet
	FlightRec *Flight
}

// Options parameterizes NewProbe.
type Options struct {
	// TraceEvents is the trace ring capacity; 0 selects DefaultTraceEvents.
	TraceEvents int
}

// NewProbe builds an armed probe. The attribution sink's violation hook is
// pre-wired to the flight recorder, so any attribution-invariant violation
// dumps the recent device history automatically.
func NewProbe(opts Options) *Probe {
	p := &Probe{
		Metrics:   NewRegistry(),
		Trace:     NewTracer(opts.TraceEvents),
		Attr:      NewAttrSink(),
		HeatSrc:   NewHeatSet(),
		FlightRec: NewFlight(0),
	}
	p.Attr.OnViolation = func(at sim.Time) {
		p.FlightRec.Violation(at, FlightAttrViolation, -1, "attribution_invariant", 0)
	}
	return p
}

// Registry returns the metrics registry, or nil on a nil probe — the
// nil-safe accessor device SetProbe implementations use.
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.Metrics
}

// Tracer returns the tracer, or nil on a nil probe.
func (p *Probe) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.Trace
}

// Attribution returns the latency-attribution sink, or nil on a nil probe —
// the nil-safe accessor device SetProbe implementations use.
func (p *Probe) Attribution() *AttrSink {
	if p == nil {
		return nil
	}
	return p.Attr
}

// Heat returns the heatmap-source registry, or nil on a nil probe.
func (p *Probe) Heat() *HeatSet {
	if p == nil {
		return nil
	}
	return p.HeatSrc
}

// Flight returns the flight recorder, or nil on a nil probe.
func (p *Probe) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.FlightRec
}

// HeatDump snapshots every registered heatmap source; safe on a nil probe
// (empty dump).
func (p *Probe) HeatDump(at sim.Time) HeatmapDump {
	return p.Heat().Dump(at)
}
