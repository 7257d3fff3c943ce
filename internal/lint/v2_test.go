// Tests for the path-sensitive pairing sweep and the findings baseline.
package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPairingModuleClean pins the result of the bracket-discipline sweep
// over the real module: the AttrSink call sites in internal/core,
// internal/ftl, and internal/hostftl all close their brackets on every
// path. A future leak fails here with only the pairing findings, instead
// of drowning in the whole-module wall of TestModuleIsClean.
func TestPairingModuleClean(t *testing.T) {
	pkgs, err := LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range Check(pkgs) {
		if f.Rule == "pairing" {
			t.Errorf("%s", f)
		}
	}
}

// TestBaselineDiff checks the diff semantics the lint gate relies on:
// matching is line-insensitive (edits that shift a baselined finding do not
// churn), multiset (a second identical finding is still new), and stale
// entries surface so the baseline can only shrink deliberately.
func TestBaselineDiff(t *testing.T) {
	cur := []JSONFinding{
		{File: "a.go", Line: 10, Rule: "determinism", Msg: "wall clock"},
		{File: "a.go", Line: 44, Rule: "determinism", Msg: "wall clock"},
		{File: "b.go", Line: 5, Rule: "pairing", Msg: "leaked bracket"},
	}
	base := &BaselineFile{Version: BaselineVersion, Findings: []JSONFinding{
		{File: "a.go", Line: 99, Rule: "determinism", Msg: "wall clock"},
		{File: "c.go", Line: 1, Rule: "tickunit", Msg: "gone now"},
	}}
	fresh, stale := DiffBaseline(cur, base)
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v, want the second a.go finding and the b.go finding", fresh)
	}
	if fresh[0].File != "a.go" || fresh[0].Line != 44 || fresh[1].File != "b.go" {
		t.Errorf("fresh = %v, want [a.go:44 b.go:5]", fresh)
	}
	if len(stale) != 1 || stale[0].File != "c.go" {
		t.Fatalf("stale = %v, want the c.go entry", stale)
	}
}

// TestBaselineRoundTrip writes a baseline, loads it back, and diffs it
// against the same findings: no churn. It also checks the version gate and
// that an empty baseline encodes findings as [] rather than null.
func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	cur := []JSONFinding{
		{File: "internal/x/x.go", Line: 7, Rule: "pairing", Msg: "leaked bracket"},
	}
	if err := os.WriteFile(path, EncodeJSON(cur), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("loading baseline back: %v", err)
	}
	if fresh, stale := DiffBaseline(cur, base); len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("round trip churned: fresh=%v stale=%v", fresh, stale)
	}

	if got := string(EncodeJSON(nil)); !strings.Contains(got, `"findings": []`) {
		t.Errorf("empty baseline encodes findings as null, want []:\n%s", got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":"simlint/v0","findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("LoadBaseline accepted a wrong-version document")
	}
}

// TestSimlintJSONGolden pins the committed baseline: `simlint -json ./...`
// over the clean module must reproduce LINT_BASELINE.json byte-for-byte,
// so the machine-readable format and the zero-findings state are both
// golden-filed.
func TestSimlintJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the go toolchain")
	}
	cmd := exec.Command("go", "run", "./cmd/simlint", "-json", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./cmd/simlint -json ./... failed: %v\n%s", err, out)
	}
	golden, err := os.ReadFile("../../LINT_BASELINE.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	if string(out) != string(golden) {
		t.Errorf("simlint -json drifted from LINT_BASELINE.json:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}
