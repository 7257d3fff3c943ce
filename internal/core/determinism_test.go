package core

import (
	"strings"
	"testing"

	"blockhead/internal/telemetry/critpath"
)

// TestReportsByteIdentical runs each row twice from the same seed and fails
// unless the two outputs match byte for byte. simlint (cmd/simlint) enforces
// the determinism contract statically — no wall clock, no global rand, no
// map-order leaks — and this table enforces it dynamically, so a
// nondeterminism regression fails even if it slips past the static rules.
// The rows are the runs whose reports carry the most derived state: E4's
// latency attribution and critical paths; E6's worst-K exemplars; E13's
// faults, crash and recoveries; E14's per-tenant blame matrix and windowed
// SLO verdicts; a counterfactual run, whose write-pointer early ack is
// computed from device state alone so probes cannot perturb the schedule;
// and the forensic replay of one measured IO in each of E6's stacks, a pure
// function of (seed, experiment, sequence number).
func TestReportsByteIdentical(t *testing.T) {
	report := func(id string, cfg Config) func() (string, error) {
		return func() (string, error) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			rep, err := e.Run(cfg)
			return rep.Format(), err
		}
	}
	explain := func(seq uint64) func() (string, error) {
		return func() (string, error) { return Explain(quickCfg, "E6", seq) }
	}
	whatif := quickCfg
	sc := critpath.MustScenario("zone_reset:0,wp_serial:0")
	whatif.Scenario = &sc

	for _, tc := range []struct {
		name string
		run  func() (string, error)
		want []string // substrings the output must carry
	}{
		{"E4", report("E4", quickCfg), nil},
		{"E6", report("E6", quickCfg), nil},
		{"E13-faults-default", report("E13", Config{Quick: true, Seed: 42, FaultProfile: "default"}), nil},
		{"E14", report("E14", quickCfg), nil},
		{"E4-whatif", report("E4", whatif), nil},
		{"explain-E6-926", explain(926),
			[]string{"conventional (opaque device GC)", "sum==end-to-end: exact"}},
		{"explain-E6-2640", explain(2640),
			[]string{"host FTL on ZNS (paced GC + streams)", "sum==end-to-end: exact"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run()
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := tc.run()
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if i := firstDiff(a, b); i >= 0 {
				lo := max(i-60, 0)
				t.Fatalf("outputs diverge at byte %d:\n run1: ...%q\n run2: ...%q",
					i, a[lo:min(i+1, len(a))], b[lo:min(i+1, len(b))])
			}
			for _, w := range tc.want {
				if !strings.Contains(a, w) {
					t.Errorf("output lacks %q:\n%s", w, a)
				}
			}
		})
	}
}

// firstDiff is the index of the first byte where a and b differ, or -1 when
// they are equal.
func firstDiff(a, b string) int {
	if a == b {
		return -1
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
