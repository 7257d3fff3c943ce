package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		runIDs, faults, whatif, expln string
		want                          string // substring of the error; "" means accepted
	}{
		{name: "defaults"},
		{name: "everything set", runIDs: "E2, e4,A1", faults: "default", whatif: "zone_reset:0,wp_serial:0",
			expln: "E6:926"},
		{name: "unknown -run ID", runIDs: "E2,E99", want: "valid: E1, E2,"},
		{name: "empty -run ID", runIDs: "E2,", want: `unknown experiment "" in -run (valid: E1,`},
		{name: "unknown profile", faults: "bogus", want: "valid: none, default, aggressive, wearout"},
		{name: "whatif without factor", whatif: "zone_reset", want: "valid: comma-separated phase:factor terms"},
		{name: "whatif unknown phase", whatif: "warp:0.5", want: "phase one of host_queue, wp_serial"},
		{name: "whatif negative factor", whatif: "nand_read:-1", want: "factor 0 to 1e6"},
		{name: "whatif NaN factor", whatif: "zone_reset:NaN", want: "factor 0 to 1e6"},
		{name: "explain without seq", expln: "E6", want: "want <experiment>:<seq>"},
		{name: "explain unknown ID", expln: "E99:3", want: "in -explain (valid: E1,"},
		{name: "explain seq 0", expln: "E6:0", want: "valid: 1 or more"},
	} {
		err := validate(tc.runIDs, tc.faults, tc.whatif, tc.expln)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: validate = %v, want accepted", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestRejectedFlagsExitTwo: a value validate rejects stops the command with
// exit status 2 before any experiment runs.
func TestRejectedFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-out", "t.json"}, // the telemetry export flags are gone
		{"-run", "E2,E99"},
		{"-faults", "bogus"},
		{"-whatif", "warp:1"},
		{"-whatif", "zone_reset:NaN"},
		{"-explain", "E6:0"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("znsbench %v: exit %d with %d bytes of report, want exit 2 and none", args, code, stdout.Len())
		}
	}
}

// TestPinnedOutputs checks the answers themselves: the full campaign at
// seed 42 reproduces docs/znsbench_full_output.txt byte for byte (after its
// three header lines), and -bench-json reproduces the committed
// BENCH_exemplars.json (E4,E6) and BENCH_slo.json (-slo, E14) byte for byte.
// Each run goes through run, the same path the command takes, so its parts
// run on as many workers as GOMAXPROCS allows; the one-worker path is held
// to the same bytes by internal/core's TestShardEquivalence table.
func TestPinnedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full campaign")
	}
	root := filepath.Join("..", "..")
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	pinned := read("docs/znsbench_full_output.txt")
	for i := 0; i < 3; i++ {
		pinned = pinned[bytes.IndexByte(pinned, '\n')+1:]
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("znsbench exited %d:\n%s", code, stderr.Bytes())
	}
	if i := firstDiff(stdout.Bytes(), pinned); i >= 0 {
		t.Errorf("full campaign differs from docs/znsbench_full_output.txt at byte %d (line %d): got %q, want %q",
			i, bytes.Count(pinned[:min(i, len(pinned))], []byte("\n"))+4,
			excerpt(stdout.Bytes(), i), excerpt(pinned, i))
	}

	for _, tc := range []struct {
		file string
		args []string
	}{
		{"BENCH_exemplars.json", []string{"-run", "E4,E6"}},
		{"BENCH_slo.json", []string{"-slo", "-run", "E14"}},
	} {
		out := filepath.Join(t.TempDir(), tc.file)
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, "-bench-json", out), &stdout, &stderr); code != 0 {
			t.Fatalf("znsbench %v exited %d:\n%s", tc.args, code, stderr.Bytes())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want := read(tc.file); !bytes.Equal(got, want) {
			i := firstDiff(got, want)
			t.Errorf("znsbench %v -bench-json differs from %s at byte %d: got %q, want %q",
				tc.args, tc.file, i, excerpt(got, i), excerpt(want, i))
		}
	}
}

// firstDiff is the index of the first byte where a and b differ, or -1 when
// they are equal.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// excerpt is the text around byte i of b, for a failure message.
func excerpt(b []byte, i int) string {
	return string(b[max(i-40, 0):min(i+40, len(b))])
}
