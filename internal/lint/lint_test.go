package lint

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// wantRe matches an expectation comment: `// want "..."` with one or more
// backquoted regexps, optionally offset to a following line (`// want +1`)
// for findings that land on a directive comment's own line.
var (
	wantRe = regexp.MustCompile("//\\s*want(?:\\s+\\+(\\d+))?((?:\\s+`[^`]*`)+)")
	patRe  = regexp.MustCompile("`([^`]*)`")
	// headingRe matches a rule heading in docs/static-analysis.md.
	headingRe = regexp.MustCompile("(?m)^### `([^`]*)`")
)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// TestFixtures runs the full rule suite over the testdata tree and checks
// the findings against the `// want` expectations embedded in the fixtures:
// every expectation must be produced, and every finding must be expected.
func TestFixtures(t *testing.T) {
	pkgs, err := LoadTree("testdata/src")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) < 9 {
		t.Fatalf("loaded %d fixture packages, want >= 9", len(pkgs))
	}
	var wants []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					line := pos.Line
					if m[1] != "" {
						var off int
						fmt.Sscanf(m[1], "%d", &off)
						line += off
					}
					for _, pm := range patRe.FindAllStringSubmatch(m[2], -1) {
						wants = append(wants, &expectation{
							file: pos.Filename,
							line: line,
							re:   regexp.MustCompile(pm[1]),
						})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in testdata")
	}
	findings := Check(pkgs)
	for _, f := range findings {
		rendered := fmt.Sprintf("[%s] %s", f.Rule, f.Msg)
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(rendered) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestFixturesCoverEveryRule checks that each rule has at least one positive
// fixture and that docs/static-analysis.md documents exactly the rule set:
// one "### `<rule>`" heading per rule, and no heading for a rule that is
// gone.
func TestFixturesCoverEveryRule(t *testing.T) {
	pkgs, err := LoadTree("testdata/src")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	got := map[string]int{}
	for _, f := range Check(pkgs) {
		got[f.Rule]++
	}
	doc, err := os.ReadFile("../../docs/static-analysis.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]int{}
	for _, m := range headingRe.FindAllStringSubmatch(string(doc), -1) {
		headings[m[1]]++
	}
	for _, r := range Rules() {
		if got[r.Name] == 0 {
			t.Errorf("rule %s has no positive fixture finding", r.Name)
		}
		if headings[r.Name] != 1 {
			t.Errorf("docs/static-analysis.md has %d \"### `%s`\" headings, want 1", headings[r.Name], r.Name)
		}
		delete(headings, r.Name)
	}
	for name := range headings {
		t.Errorf("docs/static-analysis.md documents %q, which is not a rule", name)
	}
}

// TestModuleIsClean is the static half of the determinism pin: the real
// module must produce zero findings — every deliberate exemption is
// annotated and justified.
func TestModuleIsClean(t *testing.T) {
	pkgs, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded %d packages, want the whole module", len(pkgs))
	}
	for _, f := range Check(pkgs) {
		t.Errorf("%s", f)
	}
}

// TestSimlintCLIExitsZero runs the actual CLI the Makefile runs.
func TestSimlintCLIExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the go toolchain")
	}
	cmd := exec.Command("go", "run", "./cmd/simlint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/simlint ./... failed: %v\n%s", err, out)
	}
}
