// Command znsbench runs the paper-reproduction experiments (E1-E12 and the
// ablations) and prints their report tables.
//
// Usage:
//
//	znsbench                 # run everything, full size
//	znsbench -quick          # smaller sweeps, seconds instead of minutes
//	znsbench -run E2,E5      # selected experiments
//	znsbench -list           # list experiments and their paper claims
//	znsbench -seed 7         # change the workload seed
//
// Telemetry (see docs/observability.md):
//
//	znsbench -run E4,E6 -bench-json BENCH.json
//	znsbench -slo -run E14 -bench-json BENCH_slo.json  # per-tenant SLO run
//	znsbench -run E4 -whatif nand_program:0.5  # counterfactual ground truth
//	znsbench -explain E6:512          # per-IO forensic replay (tick-by-tick)
//	znsbench -cpuprofile cpu.pprof    # profile the simulator itself
//
// -bench-json writes the machine-readable results (throughput, latency
// percentiles, per-phase attribution, critical path, exemplars); the
// committed BENCH_*.json files are its output, pinned byte for byte by this
// package's tests.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"blockhead/internal/core"
	"blockhead/internal/fault"
	"blockhead/internal/telemetry"
	"blockhead/internal/telemetry/critpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is znsbench with its arguments and output streams as parameters, so
// the tests drive exactly what the command does. It returns the exit code:
// 0 on success, 1 when a run fails, 2 for a flag value it cannot run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("znsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick      = fs.Bool("quick", false, "shrink sweeps and run lengths")
		list       = fs.Bool("list", false, "list experiments and exit")
		seed       = fs.Int64("seed", 42, "workload seed")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
		benchJSON  = fs.String("bench-json", "", "write machine-readable benchmark results (BENCH_*.json schema) to this file")
		faults     = fs.String("faults", "", "fault profile for the fault-campaign experiment (E13); implies running E13")
		slo        = fs.Bool("slo", false, "run the per-tenant SLO experiment (E14); implies adding E14 to -run")
		whatif     = fs.String("whatif", "", "run under counterfactual phase scalings, e.g. nand_program:0.5 or zone_reset:0,wp_serial:0 — the ground truth the what-if engine predicts")
		explain    = fs.String("explain", "", "replay one measured IO with tick-by-tick forensics, e.g. E6:512 (experiment:sequence from a 'slowest IOs' report section); prints the annotated narrative and exits")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "znsbench:", err)
		return code
	}

	if err := core.CheckRegistry(); err != nil {
		return fail(1, err)
	}
	if *list {
		for _, e := range core.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     paper: %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return 0
	}
	if err := validate(*runIDs, *faults, *whatif, *explain); err != nil {
		return fail(2, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := core.Config{Quick: *quick, Seed: *seed, FaultProfile: *faults}
	if *whatif != "" {
		sc, _ := critpath.ParseScenario(*whatif) // validated
		cfg.Scenario = &sc
		fmt.Fprintf(stderr, "znsbench: counterfactual run under %s\n", sc.Name)
	}
	if *explain != "" {
		id, seq, _ := parseExplain(*explain) // validated
		transcript, err := core.Explain(cfg, id, seq)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprint(stdout, transcript)
		return 0
	}
	var bench []core.BenchEntry
	for _, e := range selectExperiments(*runIDs, *faults != "", *slo) {
		rep, err := e.Run(cfg)
		if err != nil {
			// What an experiment returns beside its error is the diagnosis:
			// E13 names the pages behind an integrity failure in its notes.
			fmt.Fprintln(stderr, rep.Format())
			return fail(1, fmt.Errorf("%s: %v", e.ID, err))
		}
		fmt.Fprintln(stdout, rep.Format())
		bench = append(bench, rep.Bench...)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, cfg, bench); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "znsbench: wrote %d benchmark entries to %s\n", len(bench), *benchJSON)
	}
	return 0
}

// validate rejects flag values znsbench cannot run, naming the valid range or
// set, before any experiment starts.
func validate(runIDs, faults, whatif, explain string) error {
	if runIDs != "" {
		for _, id := range strings.Split(runIDs, ",") {
			if _, ok := core.ByID(strings.TrimSpace(id)); !ok {
				return fmt.Errorf("unknown experiment %q in -run (valid: %s)", id, experimentIDs())
			}
		}
	}
	if _, ok := fault.ProfileByName(faults); !ok {
		return fmt.Errorf("unknown -faults profile %q (valid: %s)", faults, strings.Join(fault.ProfileNames(), ", "))
	}
	if whatif != "" {
		if _, err := critpath.ParseScenario(whatif); err != nil {
			var phases []string
			for p := 0; p < telemetry.NumPhases; p++ {
				phases = append(phases, telemetry.Phase(p).String())
			}
			return fmt.Errorf("-whatif: %v (valid: comma-separated phase:factor terms, factor 0 to 1e6, phase one of %s)",
				err, strings.Join(phases, ", "))
		}
	}
	if explain != "" {
		id, seq, err := parseExplain(explain)
		if err != nil {
			return err
		}
		if _, ok := core.ByID(id); !ok {
			return fmt.Errorf("unknown experiment %q in -explain (valid: %s)", id, experimentIDs())
		}
		if seq == 0 {
			return fmt.Errorf("-explain sequence 0 never matches (valid: 1 or more; measured IOs are numbered from 1)")
		}
	}
	return nil
}

// experimentIDs lists the registered experiment IDs in run order.
func experimentIDs() string {
	var ids []string
	for _, e := range core.All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// selectExperiments resolves a validated -run list (empty: all). -faults
// exists to drive the fault campaign and -slo the per-tenant SLO
// experiment, so each adds its experiment when the list leaves it out.
func selectExperiments(runIDs string, faults, slo bool) []core.Experiment {
	if runIDs == "" {
		return core.All()
	}
	var selected []core.Experiment
	has := map[string]bool{}
	for _, id := range strings.Split(runIDs, ",") {
		e, _ := core.ByID(strings.TrimSpace(id))
		selected = append(selected, e)
		has[e.ID] = true
	}
	for _, implied := range []struct {
		on bool
		id string
	}{{faults, "E13"}, {slo, "E14"}} {
		if implied.on && !has[implied.id] {
			e, _ := core.ByID(implied.id)
			selected = append(selected, e)
		}
	}
	return selected
}

// parseExplain splits an -explain target "E6:512" into its experiment ID
// and measured-IO sequence number.
func parseExplain(spec string) (string, uint64, error) {
	id, seqStr, ok := strings.Cut(spec, ":")
	if !ok || id == "" || seqStr == "" {
		return "", 0, fmt.Errorf("explain: want <experiment>:<seq> (e.g. E6:512), got %q", spec)
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("explain: bad sequence number %q: %v", seqStr, err)
	}
	return id, seq, nil
}

// benchFile is the -bench-json schema, committed as BENCH_*.json.
type benchFile struct {
	Schema  string            `json:"schema"`
	Seed    int64             `json:"seed"`
	Quick   bool              `json:"quick"`
	Entries []core.BenchEntry `json:"entries"`
}

func writeBenchJSON(path string, cfg core.Config, entries []core.BenchEntry) error {
	if entries == nil {
		entries = []core.BenchEntry{}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(benchFile{
		Schema: "blockhead/bench/v1", Seed: cfg.Seed, Quick: cfg.Quick, Entries: entries,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
