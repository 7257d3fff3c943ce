// Command simlint runs the project's static-analysis suite over the module:
// the determinism, concurrency and tick-unit contracts that keep every
// simulation bit-identical across runs. See docs/static-analysis.md for the
// rule set, the //simlint:allow directive, and the baseline workflow.
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -json -baseline LINT_BASELINE.json ./...
//
// Exit status is 0 when the module is clean (or matches the baseline), 1
// when there are findings, and 2 when packages fail to load or type-check.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"blockhead/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "print the rule set and exit")
	jsonOut := flag.Bool("json", false, "print findings as the machine-readable simlint/v1 JSON document")
	baseline := flag.String("baseline", "", "compare findings against the baseline `file`; fail on new findings and on stale entries")
	writeBaseline := flag.String("write-baseline", "", "write the current findings to the baseline `file` and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Lints the module against the simulator's determinism contracts: no\nwall clock or global rand, no goroutines in the sim core, no map-order\nleaks, no wall-clock units in tick arithmetic. Defaults to ./... when\nno package pattern is given.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *rules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-12s %s\n", r.Name, r.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadModule(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Check(pkgs)
	cwd, _ := os.Getwd()

	if *writeBaseline != "" {
		doc := lint.EncodeJSON(lint.ToJSONFindings(findings, cwd))
		if err := os.WriteFile(*writeBaseline, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "simlint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}
	if *baseline != "" {
		base, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		fresh, stale := lint.DiffBaseline(lint.ToJSONFindings(findings, cwd), base)
		for _, f := range fresh {
			fmt.Printf("%s:%d: [%s] %s\n", f.File, f.Line, f.Rule, f.Msg)
		}
		for _, f := range stale {
			fmt.Printf("%s: [stale-baseline] no longer produced: [%s] %s\n", f.File, f.Rule, f.Msg)
		}
		if len(fresh) > 0 || len(stale) > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d new finding(s), %d stale baseline entr(ies); regenerate with -write-baseline %s and review the diff\n",
				len(fresh), len(stale), *baseline)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		os.Stdout.Write(lint.EncodeJSON(lint.ToJSONFindings(findings, cwd)))
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d: [%s] %s\n", name, f.Pos.Line, f.Rule, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}
