// Package lint is simlint: a project-specific static analyzer for the one
// contract the simulator cannot check at run time. The sim core is a
// single-threaded virtual-time event loop; every benchmark number must be
// bit-identical across runs from the same seed (the pinned reports and
// bench/golden depend on it). Wall-clock reads, the process-global rand
// source, goroutines, order-dependent map iteration and wall-clock units in
// tick arithmetic all break this silently, and no run sees it.
//
// The analyzer is built only on the stdlib go/parser, go/ast, and go/types
// (the build environment is offline, so golang.org/x/tools is unavailable).
// Packages load through `go list -export`, which works offline against the
// local build cache; see load.go.
//
// # Rules
//
//   - determinism: no wall-clock/entropy reads anywhere in the module
//     (time.Now, time.Since, the global math/rand source, crypto/rand,
//     os.Getpid, ...), and no order-dependent iteration over a map in the
//     sim-core packages.
//   - concurrency: no go statements, channels, select, or sync primitives
//     outside cmd/ — the sim core is a single-threaded virtual-time loop.
//   - tickunit: time.Duration must not leak into sim-core tick arithmetic,
//     and nothing may convert directly between time.Duration and sim.Time.
//
// The contracts the simulator checks on every run are not linted:
// AttrSink.End counts an open Suspend or PushWorker bracket, the nil-probe
// product runs and the zero-allocation pins exercise every instrument's nil
// guard, and core.CheckRegistry validates the experiment IDs.
//
// Deliberate violations are silenced with an allow directive on the same
// line or the line above:
//
//	//simlint:allow <rule> <reason>
//
// The reason is mandatory and the directive must actually suppress a finding
// — the linter lints its own escape hatch (rule "allow").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// RuleDoc describes one rule for -rules output and the docs.
type RuleDoc struct {
	Name string
	Doc  string
}

// Rules returns the rule set in display order.
func Rules() []RuleDoc {
	return []RuleDoc{
		{"determinism", "no wall-clock/entropy reads module-wide; no order-dependent map iteration in sim-core packages"},
		{"concurrency", "no goroutines, channels, select, or sync primitives outside cmd/"},
		{"tickunit", "no time.Duration in sim-core tick arithmetic; no direct time.Duration<->sim.Time conversion"},
		{"allow", "meta: every //simlint:allow must name a known rule, carry a reason, and suppress a real finding"},
	}
}

func knownRule(name string) bool {
	for _, r := range Rules() {
		if r.Name == name && r.Name != "allow" {
			return true
		}
	}
	return false
}

// simCoreSuffixes are the import-path suffixes of the packages that form the
// single-threaded virtual-time simulator core. The map-iteration and
// tick-unit rules apply only here; the concurrency rule applies here and to
// every other library package.
var simCoreSuffixes = []string{
	"internal/sim",
	"internal/fault",
	"internal/fault/oracle",
	"internal/flash",
	"internal/ftl",
	"internal/zns",
	"internal/hostftl",
	"internal/core",
	"internal/telemetry",
	"internal/telemetry/critpath",
	"internal/telemetry/exemplar",
	"internal/workload",
	"internal/placement",
	"internal/offload",
	"internal/zcache",
	"internal/zkv",
	"internal/zonefile",
}

func isSimCore(path string) bool {
	for _, s := range simCoreSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// concurrencyExempt reports whether path is where concurrency is legitimate:
// the command binaries that wrap the simulator.
func concurrencyExempt(path string) bool {
	return strings.Contains(path, "/cmd/")
}

// reporter accumulates findings for one package, deduplicating by
// (file, line, rule) so two checks that trip over the same expression do not
// double-report.
type reporter struct {
	p        *Package
	seen     map[string]bool
	findings []Finding
}

func (r *reporter) findf(pos token.Pos, rule, format string, args ...interface{}) {
	position := r.p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s", position.Filename, position.Line, rule)
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.findings = append(r.findings, Finding{Pos: position, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// Check runs every rule over the packages and returns the surviving findings
// (allow directives applied), sorted by position.
func Check(pkgs []*Package) []Finding {
	var all []Finding
	for _, p := range pkgs {
		r := &reporter{p: p}
		checkDeterminism(p, r)
		checkConcurrency(p, r)
		checkTickUnit(p, r)
		all = append(all, applyAllows(p, r.findings)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return all
}

type allowDirective struct {
	pos  token.Position
	rule string
	used bool
}

// applyAllows parses //simlint: directives, suppresses findings covered by a
// justified allow, and emits the meta-rule findings: unknown directive,
// unknown rule, missing reason, unused allow.
func applyAllows(p *Package, findings []Finding) []Finding {
	var allows []*allowDirective
	var meta []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//simlint:") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//simlint:"))
				switch {
				case len(fields) == 0:
					meta = append(meta, Finding{pos, "allow", "bare //simlint: directive; expected //simlint:allow <rule> <reason>"})
				case fields[0] != "allow":
					meta = append(meta, Finding{pos, "allow", fmt.Sprintf("unknown //simlint: directive %q (the only directive is allow)", fields[0])})
				case len(fields) == 1:
					meta = append(meta, Finding{pos, "allow", "//simlint:allow needs a rule and a reason: //simlint:allow <rule> <reason>"})
				case !knownRule(fields[1]):
					meta = append(meta, Finding{pos, "allow", fmt.Sprintf("unknown rule %q in //simlint:allow (rules: determinism, concurrency, tickunit)", fields[1])})
				default:
					a := &allowDirective{pos: pos, rule: fields[1]}
					if len(fields) == 2 {
						// The escape hatch is itself linted: an exemption
						// without a written justification is a finding, but it
						// still suppresses so the only complaint is the
						// missing reason.
						meta = append(meta, Finding{pos, "allow", fmt.Sprintf("//simlint:allow %s is missing a reason — justify the exemption", fields[1])})
					}
					allows = append(allows, a)
				}
			}
		}
	}
	var out []Finding
	for _, f := range findings {
		suppressed := false
		for _, a := range allows {
			if a.rule == f.Rule && a.pos.Filename == f.Pos.Filename &&
				(a.pos.Line == f.Pos.Line || a.pos.Line == f.Pos.Line-1) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, a := range allows {
		if !a.used {
			meta = append(meta, Finding{a.pos, "allow", fmt.Sprintf("unused //simlint:allow %s — no %s finding on this line or the next", a.rule, a.rule)})
		}
	}
	return append(out, meta...)
}

// exprString renders an expression for a finding message.
func exprString(e ast.Expr) string { return types.ExprString(e) }
