package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"blockhead/internal/sim"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter not zero")
	}

	var h *Hist
	h.Observe(sim.Millisecond)
	if snap := h.Snapshot(); snap.Count() != 0 {
		t.Error("nil hist recorded")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned live handles")
	}
	r.Gauge("g", func(sim.Time) float64 { return 1 })
	if d := r.Dump(0); len(d.Gauges) != 0 {
		t.Error("nil registry has a gauge")
	}

	var tr *Tracer
	tr.Span(1, 0, "c", "s", 0, 10)
	tr.SpanArg(1, 0, "c", "s", 0, 10, "a", 1)
	tr.Instant(1, 0, "c", "i", 5)
	tr.NameProcess(1, "p")
	tr.NameTrack(1, 0, "t")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("nil tracer export is not a valid trace")
	}

	var p *Probe
	if p.Registry() != nil || p.Tracer() != nil {
		t.Error("nil probe returned live components")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a/b")
	c1.Add(3)
	if c2 := r.Counter("a/b"); c2 != c1 || c2.Value() != 3 {
		t.Error("counter handle not stable across lookups")
	}
	h1 := r.Histogram("h")
	h1.Observe(2 * sim.Microsecond)
	h2 := r.Histogram("h")
	if snap := h2.Snapshot(); h2 != h1 || snap.Count() != 1 {
		t.Error("histogram handle not stable")
	}
}

func TestGaugeRegisterAndReplace(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", func(sim.Time) float64 { return 1 })
	if v, ok := r.Dump(0).Gauges["g"]; !ok || v != 1 {
		t.Fatalf("gauge = %v, %v", v, ok)
	}
	// Re-registering under the same name replaces the function (devices are
	// rebuilt between experiments but share one probe).
	r.Gauge("g", func(at sim.Time) float64 { return float64(at) })
	if d := r.Dump(7); d.Gauges["g"] != 7 || len(d.Gauges) != 1 {
		t.Errorf("replaced gauge = %v", d.Gauges)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Span(1, 0, "c", "s", sim.Time(i), sim.Time(i+1))
	}
	if tr.Len() != 4 || tr.total != 10 || tr.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", tr.Len(), tr.total, tr.Dropped())
	}
	ev := tr.Events()
	// Oldest-first: the surviving window is spans 6..9.
	for i, e := range ev {
		if e.Start != sim.Time(6+i) {
			t.Fatalf("event %d starts at %v, want %v", i, e.Start, 6+i)
		}
	}
}

func TestTracerEventShapes(t *testing.T) {
	tr := NewTracer(8)
	tr.Span(2, 3, "flash", "read", 100, 40100)
	tr.SpanArg(2, 3, "flash", "program", 200, 900, "block", 17)
	tr.Instant(5, 1, "zone", "->open", 50)
	tr.Span(1, 0, "flash", "clamped", 30, 10) // end < start clamps to zero-dur
	ev := tr.Events()
	if ev[0].Instant() || ev[0].Dur != 40000 {
		t.Errorf("span: %+v", ev[0])
	}
	if ev[1].ArgName != "block" || ev[1].Arg != 17 {
		t.Errorf("span arg: %+v", ev[1])
	}
	if !ev[2].Instant() {
		t.Errorf("instant: %+v", ev[2])
	}
	if ev[3].Dur != 0 {
		t.Errorf("clamped span: %+v", ev[3])
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(16)
	tr.NameProcess(ProcFlashLUN, "flash LUNs (dies)")
	tr.NameTrack(ProcFlashLUN, 2, "lun 2")
	tr.Span(ProcFlashLUN, 2, "flash", "read", sim.Microsecond, 3*sim.Microsecond)
	tr.record(Event{Name: "->full", Cat: "zone", Start: 5 * sim.Microsecond, Dur: -1,
		PID: ProcZone, TID: 7, ArgName: "zone", Arg: 7})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var sawProcMeta, sawTrackMeta, sawSpan, sawInstant bool
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				sawProcMeta = true
			}
			if e["name"] == "thread_name" {
				sawTrackMeta = true
			}
		case "X":
			sawSpan = true
			if e["ts"].(float64) != 1 || e["dur"].(float64) != 2 {
				t.Errorf("span ts/dur wrong: %v", e)
			}
		case "i":
			sawInstant = true
			if e["s"] != "t" {
				t.Errorf("instant missing scope: %v", e)
			}
			args := e["args"].(map[string]interface{})
			if args["zone"].(float64) != 7 {
				t.Errorf("instant args wrong: %v", e)
			}
		}
	}
	if !sawProcMeta || !sawTrackMeta || !sawSpan || !sawInstant {
		t.Errorf("export missing sections: proc=%v track=%v span=%v instant=%v",
			sawProcMeta, sawTrackMeta, sawSpan, sawInstant)
	}
}

func TestMetricsDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("layer/ops").Add(42)
	r.Histogram("layer/lat").Observe(8 * sim.Microsecond)
	r.Gauge("layer/level", func(at sim.Time) float64 { return 2.5 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var d MetricsDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Counters["layer/ops"] != 42 {
		t.Errorf("counter = %d", d.Counters["layer/ops"])
	}
	if d.Gauges["layer/level"] != 2.5 {
		t.Errorf("gauge = %v", d.Gauges["layer/level"])
	}
	if h := d.Histograms["layer/lat"]; h.Count != 1 || h.MaxUs != 8 {
		t.Errorf("hist = %+v", h)
	}
}
