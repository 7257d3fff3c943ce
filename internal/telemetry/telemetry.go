// Package telemetry is the cross-layer observability substrate for the
// device models: a metrics registry of hierarchically named counters,
// gauges, and log-bucketed histograms, and a span/event tracer that exports
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The paper's quantitative claims — §2.2 write amplification, §2.4 tail
// latency — are all derived numbers; this package exposes where inside the
// FTL, the flash geometry, and the zone state machine they accrue.
//
// Everything is nil-safe and zero-allocation when disabled: device models
// hold handles (*Counter, *Hist, *Tracer, *Registry) that are nil on an
// un-instrumented run, and every method takes the no-op fast path on a nil
// receiver. The disabled-path benchmark in bench_test.go pins this at
// 0 allocs/op.
//
// Metric names are slash-separated hierarchies, optionally suffixed with a
// {key=value} label, e.g.:
//
//	ftl/gc/copy_pages
//	zns/zone/state_transitions{to=full}
//	flash/chan/3/util
//
// The simulator is single-threaded (one virtual-time event loop), so the
// registry does no locking; attach probes before the drive starts.
package telemetry

import (
	"sort"

	"blockhead/internal/sim"
	"blockhead/internal/stats"
)

// Counter is a monotonically increasing named metric. The nil Counter is a
// valid no-op, so device hot paths call Add/Inc unconditionally.
type Counter struct {
	v uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Hist is a named log2-bucketed histogram of virtual-time durations,
// backed by stats.Histogram. The nil Hist is a valid no-op.
type Hist struct {
	h stats.Histogram
}

// Observe records one duration sample. No-op on a nil receiver.
func (h *Hist) Observe(v sim.Time) {
	if h == nil {
		return
	}
	h.h.Add(v)
}

// Snapshot returns the underlying histogram; the zero histogram on a nil
// receiver.
func (h *Hist) Snapshot() stats.Histogram {
	if h == nil {
		return stats.Histogram{}
	}
	return h.h
}

// GaugeFunc computes an instantaneous value at virtual time at; the
// exporter polls it for the value at the end of the run.
type GaugeFunc func(at sim.Time) float64

type gauge struct {
	name string
	fn   GaugeFunc
}

// Registry holds named metrics. The nil Registry is a valid no-op: every
// method returns the zero value, so un-instrumented devices can resolve
// handles through a nil registry and get nil (no-op) handles back.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Hist
	gauges   []*gauge
	gaugeIdx map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Hist),
		gaugeIdx: make(map[string]int),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string) *Hist {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Hist{}
	r.hists[name] = h
	return h
}

// Gauge registers (or replaces) a polled gauge under name. No-op on a nil
// registry.
func (r *Registry) Gauge(name string, fn GaugeFunc) {
	if r == nil || fn == nil {
		return
	}
	if i, ok := r.gaugeIdx[name]; ok {
		r.gauges[i].fn = fn
		return
	}
	r.gaugeIdx[name] = len(r.gauges)
	r.gauges = append(r.gauges, &gauge{name: name, fn: fn})
}

// counterNames returns the registered counter names, sorted for
// deterministic export.
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// histNames returns the registered histogram names, sorted.
func (r *Registry) histNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gaugesSorted returns the registered gauges ordered by name.
func (r *Registry) gaugesSorted() []*gauge {
	out := append([]*gauge(nil), r.gauges...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
