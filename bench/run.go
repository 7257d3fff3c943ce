package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// runOpts is one run of one workload.
type runOpts struct {
	seed     int64
	seconds  float64 // host seconds the measured phase lasts
	trace    bool
	traceOut string // where the traced run writes its spans; "" = nowhere
	sc       scale
	slices   int       // > 0: run exactly this many slices instead of for seconds
	unpinned bool      // ignore the golden files (-update-golden is rewriting them)
	log      io.Writer // human-readable progress and the metric table
}

// result is one run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    detail            `json:"detail"`

	// What -update-golden writes.
	golden golden
}

// detail is what a result file keeps beside the contract's metrics: the
// two must-be-zero verdicts under the issue's names, the spread of the
// per-slice rates, and the sizes the run did.
type detail struct {
	FailFrac    float64   `json:"fail_frac"`
	ModelDrift  int       `json:"model_drift"`
	Pinned      string    `json:"pinned"` // "golden" or "repeats only"
	Drifts      []string  `json:"drifts,omitempty"`
	Slices      int       `json:"slices"`
	SliceOps    uint64    `json:"slice_ops"`
	MeasuredS   float64   `json:"measured_s"`
	OpsPerSMin  float64   `json:"sim_ops_per_s_min"`
	OpsPerSMax  float64   `json:"sim_ops_per_s_max"`
	SetupS      []float64 `json:"setup_s_each"`
	AllocsPerOp float64   `json:"allocs_per_op"`
	BytesPerOp  float64   `json:"alloc_bytes_per_op"`
}

// checkpointSlice is the early slice whose full stats a golden file keeps
// readable beside the per-slice digests.
const checkpointSlice = 4

// runWorkload sets the workload up sc.setupRepeats times, measures slices
// for opts.seconds, checks every simulated statistic, and reports the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(def workloadDef, opts runOpts) (result, error) {
	sc := opts.sc
	res := result{Workload: def.name, Seed: opts.seed, Trace: opts.trace}
	var pin *golden
	var err error
	if !opts.unpinned {
		if pin, err = loadGolden(def.name, opts.seed, sc); err != nil {
			return res, err
		}
	}
	d := &res.Detail
	d.Pinned = "repeats only"
	if pin != nil {
		d.Pinned = "golden"
	}
	drift := func(where string, diffs []string) {
		for _, s := range diffs {
			d.Drifts = append(d.Drifts, where+": "+s)
		}
		d.ModelDrift += len(diffs)
	}

	// Set-up, several times over: setup_s is the median, and every repeat
	// must leave the same simulated state behind.
	var inst instance
	var first map[string]string
	for i := 0; i < sc.setupRepeats; i++ {
		inst = nil
		runtime.GC()
		t0 := now()
		if inst, err = def.setup(sc, opts.seed); err != nil {
			return res, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		d.SetupS = append(d.SetupS, seconds(now()-t0))
		got := inst.model().asMap()
		if first == nil {
			first = got
		} else {
			drift(fmt.Sprintf("set-up repeat %d vs 1", i+1), diffStats(got, first))
		}
	}
	if pin != nil {
		drift("set-up vs golden", diffStats(first, pin.Setup))
	}
	res.golden = golden{Workload: def.name, Seed: opts.seed, Geometry: sc.geomName,
		Setup: first, CheckpointSlice: checkpointSlice}

	// Measure. A traced run alternates traced and untraced slices, so the
	// tracing overhead is a ratio of medians taken within the same few seconds.
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var (
		rates       [2][]float64 // ops per host ns, by [untraced, traced]
		sumNs       [2]int64
		sumOps      [2]uint64
		tot         traced
		mallocs, by uint64
		digest      string
		firstSlice  map[string]string
	)
	start := now()
	for k := 0; ; k++ {
		if opts.slices > 0 && k >= opts.slices {
			break
		}
		if opts.slices == 0 && k >= 2 && seconds(now()-start) >= opts.seconds {
			break
		}
		on := opts.trace && k%2 == 0
		if tr != nil {
			tr.on, tr.batch = on, int32(k)
		}
		c0 := inst.counts()
		m0, b0 := heapCounters()
		out := inst.slice(tr)
		m1, b1 := heapCounters()
		mallocs, by = mallocs+m1-m0, by+b1-b0
		res.Attempted += out.ops
		res.Failed += out.failed
		if out.ops == 0 || out.ns <= 0 {
			return res, fmt.Errorf("%s slice %d: no work measured", def.name, k+1)
		}
		w := 0
		if on {
			w = 1
			tot.ns += out.ns
			tot.counts.add(inst.counts().sub(c0))
		}
		rates[w] = append(rates[w], float64(out.ops)/float64(out.ns))
		sumNs[w] += out.ns
		sumOps[w] += out.ops
		if k == 0 {
			d.SliceOps = out.ops
		}

		// Simulated statistics: compared exactly, never timed.
		st := inst.model()
		digest = chain(digest, st)
		res.golden.SliceDigests = append(res.golden.SliceDigests, digest)
		if k+1 == checkpointSlice {
			res.golden.Checkpoint = st.asMap()
			if pin != nil {
				drift("checkpoint slice vs golden", diffStats(res.golden.Checkpoint, pin.Checkpoint))
			}
		}
		if pin != nil && k < len(pin.SliceDigests) && pin.SliceDigests[k] != digest {
			drift(fmt.Sprintf("slice %d", k+1), []string{"digest " + digest + " want " + pin.SliceDigests[k]})
		}
		if def.repeatable {
			if firstSlice == nil {
				firstSlice = st.asMap()
			} else {
				drift(fmt.Sprintf("slice %d vs 1", k+1), diffStats(st.asMap(), firstSlice))
			}
		}
	}
	res.golden.SliceOps = d.SliceOps
	if tr != nil {
		tot.acc = tr.acc
	}

	d.Slices = len(rates[0]) + len(rates[1])
	d.MeasuredS = seconds(now() - start)
	d.FailFrac = float64(res.Failed) / float64(res.Attempted)
	d.AllocsPerOp = float64(mallocs) / float64(res.Attempted)
	d.BytesPerOp = float64(by) / float64(res.Attempted)
	sort.Float64s(rates[0])
	d.OpsPerSMin, d.OpsPerSMax = rates[0][0]*1e9, rates[0][len(rates[0])-1]*1e9
	res.Correct = res.Failed == 0 && d.ModelDrift == 0

	m := metricSet{}
	if !opts.trace {
		m["setup_s"] = median(d.SetupS)
		m["wall_s"] = sc.nominal[def.name] * float64(sumNs[0]) / float64(sumOps[0]) / 1e9
		m["sim_ops_per_s"] = median(rates[0]) * 1e9
		m["peak_rss_mb"] = peakRSSMB()
		res.Metrics = m.emit(endToEnd)
	} else {
		ld := runLadder(sc, opts.seed, def.loopDepth)
		ld.metrics(m)
		inst.layers(ld, tot, m)
		c := tot.counts
		m["sim.events"] = float64(c[cEvents])
		m["flash.programs"], m["flash.reads"], m["flash.erases"] = float64(c[cFlashPrograms]), float64(c[cFlashReads]), float64(c[cFlashErases])
		m["zns.appends"], m["zns.resets"] = float64(c[cZNSAppends]), float64(c[cZNSResets])
		m["allocs_per_op"], m["alloc_bytes_per_op"] = d.AllocsPerOp, d.BytesPerOp
		m["trace.spans"] = float64(len(tr.spans))
		m["trace.overhead_frac"] = median(rates[0])/median(rates[1]) - 1
		res.Metrics = m.emit(perLayer)
		if opts.traceOut != "" {
			tf := traceFile{Schema: "blockhead/bench-trace/v1", Manifest: newManifest(opts), Workload: def.name,
				Spans: tr.spans, Dropped: tr.dropped, Counts: res.Metrics}
			if err := writeJSON(opts.traceOut, tf); err != nil {
				return res, err
			}
		}
	}
	printTable(opts.log, def, res, opts)
	return res, nil
}

// printTable writes the run's metrics for a person to read.
func printTable(w io.Writer, def workloadDef, res result, opts runOpts) {
	d := res.Detail
	fmt.Fprintf(w, "%s seed=%d scale=%s geometry=%s trace=%v: %d slices of %d ops in %.2fs; set-up %v s\n",
		def.name, res.Seed, opts.sc.name, opts.sc.geomName, res.Trace, d.Slices, d.SliceOps, d.MeasuredS, d.SetupS)
	fmt.Fprintf(w, "  fail_frac=%g (%d of %d)  model_drift=%d (%s)  sim_ops_per_s min/max=%.4g/%.4g n=%d  allocs_per_op=%.4g alloc_bytes_per_op=%.4g\n",
		d.FailFrac, res.Failed, res.Attempted, d.ModelDrift, d.Pinned, d.OpsPerSMin, d.OpsPerSMax, d.Slices, d.AllocsPerOp, d.BytesPerOp)
	for _, s := range d.Drifts {
		fmt.Fprintf(w, "  DRIFT %s\n", s)
	}
	for _, name := range sortedKeys(res.Metrics) {
		if v := res.Metrics[name]; v.Value != 0 {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	fmt.Fprintln(w, "  host time throughout; simulated statistics are compared for equality only. The model is validated against the paper's bands in internal/core tests, not against hardware, so no accuracy figure is given.")
}

func median(v []float64) float64 {
	q := quartiles(v)
	return q[1]
}

// quartiles reports the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
