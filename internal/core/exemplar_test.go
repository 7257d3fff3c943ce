package core

import (
	"strings"
	"testing"
)

// TestExemplarPhaseSumsExact is the capture layer's acceptance bar: for a
// seeded E6 run, every report-listed exemplar's phase timeline sums
// exactly to its end-to-end latency — in both stacks' sections, the
// flagged ring included. An inexact sum means the reservoir copied a live
// record instead of the completed one.
func TestExemplarPhaseSumsExact(t *testing.T) {
	e, ok := ByID("E6")
	if !ok {
		t.Fatal("E6 not registered")
	}
	rep, err := e.Run(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exemplars) != 2 {
		t.Fatalf("E6 report has %d exemplar sections, want one per stack", len(rep.Exemplars))
	}
	for _, es := range rep.Exemplars {
		if es.Snap.Captured() == 0 {
			t.Fatalf("section %q captured no exemplars", es.Name)
		}
		for _, exs := range es.Snap.Tenants {
			for _, ex := range exs {
				if got := phaseSum(ex); got != ex.Total {
					t.Errorf("%s seq=%d: phases sum to %v, end-to-end is %v", es.Name, ex.Seq, got, ex.Total)
				}
			}
		}
		for _, ex := range es.Snap.Flagged {
			if got := phaseSum(ex); got != ex.Total {
				t.Errorf("%s flagged seq=%d: phases sum to %v, end-to-end is %v", es.Name, ex.Seq, got, ex.Total)
			}
		}
	}
	text := rep.Format()
	if strings.Contains(text, "WARNING") {
		t.Errorf("report flags inexact phase sums:\n%s", text)
	}
}

// TestExplainRejectsBadTargets pins the error paths: unknown experiments
// and the never-matching sequence number 0 fail up front instead of
// running a full simulation to no effect.
func TestExplainRejectsBadTargets(t *testing.T) {
	if _, err := Explain(quickCfg, "E99", 1); err == nil {
		t.Error("Explain(E99) succeeded, want unknown-experiment error")
	}
	if _, err := Explain(quickCfg, "E6", 0); err == nil {
		t.Error("Explain(E6:0) succeeded, want 1-based-sequence error")
	}
}
