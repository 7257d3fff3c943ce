package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// workerCounts is the invariance table's GOMAXPROCS axis: one worker, then
// counts below and at-or-above any experiment's part count (counts beyond
// the part count clamp).
var workerCounts = []int{1, 2, 4}

// runReportAt runs one experiment on up to workers workers (GOMAXPROCS,
// restored when t ends) and returns the rendered report followed by its
// -bench-json entries — the byte-exact artifacts the whole table compares. The entries carry what the text does not print (a
// histogram's max is exact on a part's own sink and only a bucket edge in a
// delta against a sink another part has used).
func runReportAt(t *testing.T, id string, cfg Config, workers int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	setWorkers(t, workers)
	rep, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	bench, err := json.Marshal(rep.Bench)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Format() + string(bench)
}

// diffAt reports the first differing byte with context, so a determinism
// regression names the exact report section that drifted.
func diffAt(t *testing.T, label, got, want string) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 100
			if lo < 0 {
				lo = 0
			}
			hi := i + 100
			if hi > n {
				hi = n
			}
			t.Errorf("%s: first diff at byte %d:\n  got  ...%q\n  want ...%q",
				label, i, got[lo:hi], want[lo:hi])
			return
		}
	}
	t.Errorf("%s: reports differ in length: %d vs %d bytes", label, len(got), len(want))
}

// TestShardEquivalence is the one worker-count invariance table: for every
// registered experiment, the full rendered report is byte-identical at every
// worker count, same seed. All counts run the same code (private session per
// part, rebased numbering), so this is one property, not a comparison of two
// paths. Everything the reports embed rides along — latency tables,
// attribution breakdowns, critical paths, exemplar sequence numbers and
// -explain hints, blame matrices with their exact conservation lines, device
// audits, and oracle verdicts. The experiments that inject faults or attribute
// per tenant get a second row under the default fault profile.
func TestShardEquivalence(t *testing.T) {
	invariant := func(t *testing.T, id string, cfg Config) {
		ref := runReportAt(t, id, cfg, workerCounts[0])
		for _, n := range workerCounts[1:] {
			if got := runReportAt(t, id, cfg, n); got != ref {
				diffAt(t, id+" workers="+itoa(n), got, ref)
			}
		}
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			invariant(t, e.ID, quickCfg)
		})
	}
	for _, id := range []string{"E4", "E13", "E14"} {
		t.Run(id+"-faults-default", func(t *testing.T) {
			cfg := quickCfg
			cfg.FaultProfile = "default"
			invariant(t, id, cfg)
		})
	}
}

// TestShardEquivalenceFullSize extends the table to full size for the sweeps
// whose points are parts (E2's OP points, E9's policy rows, A1's cells, X3's
// workload blocks, X6's cache designs): Quick runs fewer points, so a slot
// mix-up among the points only full size has would pass the Quick rows. One
// worker against two; znsbench's pinned output covers the host's count.
func TestShardEquivalenceFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweeps")
	}
	for _, id := range []string{"E2", "E9", "A1", "X3", "X6"} {
		t.Run(id, func(t *testing.T) {
			cfg := Config{Seed: 42}
			if got, ref := runReportAt(t, id, cfg, 2), runReportAt(t, id, cfg, 1); got != ref {
				diffAt(t, id+" workers=2", got, ref)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestShardMetamorphic checks worker-count invariance of the semantic
// properties the reports carry, across seeds the byte-identity table never
// sees: for 3 seeds and both stacks of the blame (E14) and fault-oracle
// (E13) experiments, a four-worker run must preserve the exact
// blame-conservation line, report zero oracle violations, and stay
// byte-identical to the one-worker run.
func TestShardMetamorphic(t *testing.T) {
	for _, seed := range []int64{7, 42, 99} {
		for _, id := range []string{"E13", "E14"} {
			serial := runReportAt(t, id, Config{Quick: true, Seed: seed}, 1)
			parallel := runReportAt(t, id, Config{Quick: true, Seed: seed}, 4)
			label := id + "/seed=" + itoa(int(seed))
			if parallel != serial {
				diffAt(t, label, parallel, serial)
				continue
			}
			if strings.Contains(parallel, "WARNING") {
				t.Errorf("%s: report carries a WARNING (broken invariant):\n%s", label, parallel)
			}
			switch id {
			case "E13":
				// Oracle verdicts: the violation column renders 0 for every
				// (stack, profile) row and no violation note appears.
				if strings.Contains(parallel, "ORACLE VIOLATION") {
					t.Errorf("%s: oracle violations at four workers", label)
				}
			case "E14":
				// Blame conservation (sum(blame) == sum(stalls), exact) must
				// hold in both stacks' tenant sections.
				if n := strings.Count(parallel, "blame conservation:"); n != 2 {
					t.Errorf("%s: %d exact blame-conservation lines, want 2", label, n)
				}
			}
		}
	}
}
