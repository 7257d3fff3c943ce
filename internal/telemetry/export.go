package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"blockhead/internal/sim"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (the "JSON Array Format" consumed by chrome://tracing and Perfetto).
// Timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	PID  int32                  `json:"pid"`
	TID  int32                  `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the retained events as Chrome trace-event JSON:
// one process per hardware layer, one thread per channel/LUN/zone, complete
// ("X") events for spans and instant ("i") events for markers. Open the file
// at chrome://tracing or https://ui.perfetto.dev. Writes an empty trace on a
// nil receiver.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"})
	}
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	events := t.Events()

	// Metadata: name every known process and every track that either was
	// named explicitly or carries events.
	pids := make([]int32, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]interface{}{"name": t.procs[pid]},
		})
	}
	keys := make([]int64, 0, len(t.tracks))
	for k := range t.tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		pid, tid := int32(k>>32), int32(uint32(k))
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]interface{}{"name": t.tracks[k]},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, TS: e.Start.Micros(), PID: e.PID, TID: e.TID,
		}
		if e.Instant() {
			ce.Ph, ce.S = "i", "t"
		} else {
			ce.Ph = "X"
			dur := e.Dur.Micros()
			ce.Dur = &dur
		}
		if e.ArgName != "" {
			ce.Args = map[string]interface{}{e.ArgName: e.Arg}
		}
		trace.TraceEvents = append(trace.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// MetricsDump is the JSON shape of a metrics export: final aggregates for
// every counter, gauge, and histogram.
type MetricsDump struct {
	AtMillis   float64             `json:"at_ms"` // virtual time of the dump
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistDump `json:"histograms"`
}

// HistDump summarizes one histogram.
type HistDump struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Dump assembles the exportable snapshot of the registry at virtual time
// at: every counter and histogram aggregate and every gauge polled at at.
// Returns an empty dump on a nil registry.
func (r *Registry) Dump(at sim.Time) MetricsDump {
	if r == nil {
		return emptyMetricsDump(at)
	}
	d := emptyMetricsDump(at)
	for _, n := range r.counterNames() {
		d.Counters[n] = r.counters[n].Value()
	}
	for _, g := range r.gaugesSorted() {
		d.Gauges[g.name] = g.fn(at)
	}
	for _, n := range r.histNames() {
		h := r.hists[n].Snapshot()
		d.Histograms[n] = HistDump{
			Count:  h.Count(),
			MeanUs: h.Mean().Micros(),
			P50Us:  h.Percentile(50).Micros(),
			P99Us:  h.Percentile(99).Micros(),
			P999Us: h.Percentile(99.9).Micros(),
			MaxUs:  h.Max().Micros(),
		}
	}
	return d
}

// emptyMetricsDump is the dump skeleton: what a nil registry exports, and
// what Dump fills in.
func emptyMetricsDump(at sim.Time) MetricsDump {
	return MetricsDump{
		AtMillis:   at.Millis(),
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistDump{},
	}
}

// WriteJSON writes the metrics dump as indented JSON.
func (r *Registry) WriteJSON(w io.Writer, at sim.Time) error {
	if r == nil {
		return writeIndentedJSON(w, emptyMetricsDump(at))
	}
	return writeIndentedJSON(w, r.Dump(at))
}

func writeIndentedJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
