// Command bench is the repository's benchmark: six named workloads that
// measure the simulator's host time end to end, check that every simulated
// statistic is unchanged, and — in a separate traced run — fill a per-layer
// table from spans recorded around the benchmark's own calls into each
// layer. BENCHMARK.json at the repository root is its contract; README.md
// in this directory is the glossary.
//
//	bash bench/run.sh --workload conv_gc --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -out new.json -repeat 3 -with-trace   # the whole set
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -update-golden
//
// All timings are host time. Virtual-time quantities are model output and
// are only ever compared for exact equality.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process (default: the whole set, one process each)")
		seed      = flag.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
		secs      = flag.Float64("seconds", runSeconds, "host seconds each run measures for")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics in place of the end-to-end ones")
		scaleName = flag.String("scale", "full", "full or tiny (tiny is for tests)")
		geomName  = flag.String("geometry", defaultGeometry, "device geometry: femu256, or femu for offline scaling runs")
		traceOut  = flag.String("trace-out", "", "traced run: write the spans and counts to this file as JSON")
		out       = flag.String("out", "", "whole set: write the result file here")
		repeat    = flag.Int("repeat", 1, "whole set: run it this many times; the result file keeps median and quartiles")
		withTrace = flag.Bool("with-trace", false, "whole set: follow every untraced run with a traced one")
		appendOut = flag.Bool("append", false, "whole set: add the runs to -out if it exists, so two commits can take turns")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		update    = flag.Bool("update-golden", false, "regenerate the pinned simulated statistics for seeds 42 and 7")
		full      = flag.Bool("full-result", false, "print the whole result, not only the contract's four keys, as the last line")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json from the program's own tables and exit")
	)
	flag.StringVar(&revision, "rev", "", "git revision to record in the manifest (default: the build's VCS stamp)")
	flag.Parse()

	sc, err := scaleFor(*scaleName, *geomName)
	if err != nil {
		fatal(2, err)
	}
	opts := runOpts{seed: *seed, seconds: *secs, trace: *trace != 0, traceOut: *traceOut, sc: sc, log: os.Stderr}
	switch {
	case *contract:
		b, err := json.MarshalIndent(contractFile(), "", "  ")
		if err != nil {
			fatal(1, err)
		}
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("-compare wants two result files, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if !ok {
			os.Exit(1)
		}
	case *update:
		if err := updateGolden(opts); err != nil {
			fatal(1, err)
		}
	case *workload != "":
		def, ok := workloadByName(*workload)
		if !ok {
			fatal(2, fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runWorkload(def, opts)
		if err != nil {
			fatal(1, err)
		}
		var line any = res
		if !*full {
			line = struct {
				Correct   bool              `json:"correct"`
				Attempted uint64            `json:"attempted"`
				Failed    uint64            `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{res.Correct, res.Attempted, res.Failed, res.Metrics}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(1, err)
		}
		fmt.Println(string(b))
		if !res.Correct {
			os.Exit(1) // failed ops or drifted statistics: the numbers mean nothing
		}
	default:
		if err := runSet(opts, *repeat, *withTrace, *out, *appendOut); err != nil {
			fatal(1, err)
		}
	}
}

// runSeconds is how long the driver has each run measure.
const runSeconds = 10

// contractFile is BENCHMARK.json: the command, the directories that hold
// the benchmark, and the workload and metric tables, exactly the keys the
// driver's contract names.
func contractFile() any {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	f := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, PerLayer: perLayer}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	return f
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

// runSet runs every workload, each in a process of its own so that
// peak_rss_mb is per workload, repeat times over, and writes the result
// file. The children run one after another: the load generator is single
// threaded and GOMAXPROCS is left alone.
func runSet(opts runOpts, repeat int, withTrace bool, out string, appendOut bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Schema: "blockhead/bench-result/v1", Manifest: newManifest(opts)}
	file.Manifest.OpCounts = map[string]uint64{}
	if appendOut {
		old, err := readResultFile(out)
		switch {
		case err == nil:
			if a, b := old.Manifest, file.Manifest; a.Revision != b.Revision || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale || a.Geometry != b.Geometry {
				return fmt.Errorf("%s holds runs of another revision, seed or size; refusing to append", out)
			}
			file.Runs = old.Runs
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
	}
	allCorrect := true
	traceModes := []string{"0"}
	if withTrace {
		traceModes = append(traceModes, "1")
	}
	for r := 0; r < repeat; r++ {
		for _, def := range workloads {
			for _, traced := range traceModes {
				args := []string{"-full-result", "-workload", def.name,
					"-seed", strconv.FormatInt(opts.seed, 10),
					"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
					"-trace", traced,
					"-scale", opts.sc.name, "-geometry", opts.sc.geomName, "-rev", file.Manifest.Revision}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, runErr := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s: no result (%v): %w", def.name, runErr, err)
				}
				for name, m := range res.Metrics {
					if m.Value == 0 {
						delete(res.Metrics, name) // a layer this workload never enters
					}
				}
				file.Runs = append(file.Runs, res)
				file.Manifest.OpCounts[def.name] = res.Detail.SliceOps
				allCorrect = allCorrect && res.Correct
			}
		}
	}
	file.Summary = summarize(file.Runs)
	for _, def := range workloads {
		for _, md := range endToEnd {
			s := file.Summary[def.name][md.Name]
			fmt.Printf("%-16s %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.2f%% (bound %2.0f%%)  n=%d %s\n",
				def.name, md.Name, s.Median, s.Q1, s.Q3, s.spread()*100, md.Bound*100, s.N, s.Unit)
		}
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("at least one run failed ops or drifted from its pinned statistics")
	}
	return nil
}

// goldenSlices is how many slices -update-golden pins per workload: about
// four times what today's code completes in a 10 s run, so a run stays
// fully pinned until the simulator is four times faster.
var goldenSlices = map[string]int{
	"campaign": 4, "conv_gc": 200, "zns_host": 400, "kv_lsm": 72, "mixed_rw": 264, "mixed_rw_armed": 200,
}

// updateGolden regenerates the pinned statistics from the current code.
// Later changes that only speed the simulator up must leave them identical.
func updateGolden(opts runOpts) error {
	for _, seed := range []int64{42, 7} {
		for _, def := range workloads {
			o := opts
			o.seed, o.trace, o.slices, o.unpinned = seed, false, goldenSlices[def.name], true
			res, err := runWorkload(def, o)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: failed ops or unrepeatable statistics; refusing to pin", def.name, seed)
			}
			if err := res.golden.write("bench/golden"); err != nil { // run.sh runs us from the checkout root
				return err
			}
		}
	}
	return nil
}
