package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// kind names a layer boundary the benchmark records spans at. Spans are
// recorded from the benchmark's own files, around its calls into a layer;
// nothing inside internal/ is instrumented.
type kind int

const (
	kSlice      kind = iota // one measured slice of a workload
	kBatch                  // 4 096 direct calls into ftl / hostftl
	kDrive                  // one core.RunMixed call
	kWriteOp                // one write OpFunc closure under RunMixed
	kReadOp                 // one read OpFunc closure under RunMixed
	kBackend                // one zkv.Backend method call (timing decorator)
	kPut                    // one zkv.DB.Put
	kGet                    // one zkv.DB.Get
	kExperiment             // one core experiment Run
	kFormat                 // one Report.Format
	numKinds
)

var kindNames = [numKinds]string{
	"slice", "batch", "core.RunMixed", "op.write", "op.read",
	"zkv.Backend", "zkv.Put", "zkv.Get", "core.Experiment.Run", "core.Report.Format",
}

// span is one recorded interval. Parent is the index of the span that
// caused it (-1 for a root); Batch is shared by every span of one slice.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
}

// maxSpans caps the spans kept in memory; the per-kind totals below stay
// exact past the cap, so layer times never depend on it.
const maxSpans = 1 << 18

// sampleEvery is the period at which per-op closures under an event loop
// are timed: timing every 330 ns op would cost a quarter of it. Prime, so
// it cannot lock onto the 8-zone / 32-writer round robin.
const sampleEvery = 17

type accum struct {
	n  uint64
	ns int64
}

// tracer keeps spans in memory until the run ends. A nil or switched-off
// tracer records nothing.
type tracer struct {
	on      bool
	limit   int // spans kept; totals stay exact past it
	batch   int32
	tick    uint32
	spans   []span
	dropped uint64
	acc     [numKinds]accum
}

func newTracer() *tracer { return &tracer{limit: maxSpans, spans: make([]span, 0, maxSpans)} }

// recording reports whether spans and totals are being kept right now.
func (t *tracer) recording() bool { return t != nil && t.on }

// begin opens a span under parent and returns its handle and start time for
// end. With the tracer off it only reads the clock, so callers can time a
// region through begin/end whether or not spans are being kept.
func (t *tracer) begin(k kind, parent int32) (id int32, start int64) {
	start = now()
	if !t.recording() {
		return -1, start
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -2, start
	}
	t.spans = append(t.spans, span{Name: kindNames[k], Start: start, Parent: parent, Batch: t.batch})
	return int32(len(t.spans) - 1), start
}

// end closes the span begin returned, adds it to its kind's total and
// reports its duration.
func (t *tracer) end(k kind, id int32, start int64) int64 {
	end := now()
	if id == -1 {
		return end - start
	}
	if id >= 0 {
		t.spans[id].End = end
	}
	t.acc[k].n++
	t.acc[k].ns += end - start
	return end - start
}

// sample reports whether this op's closure should be timed.
func (t *tracer) sample() bool {
	if !t.recording() {
		return false
	}
	t.tick++
	return t.tick%sampleEvery == 0
}

// traceFile is the -trace-out schema: the spans with the counts taken at
// the same boundaries.
type traceFile struct {
	Schema   string            `json:"schema"`
	Manifest manifest          `json:"manifest"`
	Workload string            `json:"workload"`
	Spans    []span            `json:"spans"`
	Dropped  uint64            `json:"spans_dropped"`
	Counts   map[string]metric `json:"counts"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(b, '\n'))
}

// writeFile creates path's directory if need be: a run can be ten minutes
// old by the time it writes its result.
func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
