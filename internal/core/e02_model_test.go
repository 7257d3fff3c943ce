package core

import (
	"math"
	"strconv"
	"testing"
)

// greedyWA is the closed-form write amplification of uniform random
// overwrites under greedy GC (Desnoyers, SYSTOR '12; Hu et al., SYSTOR
// '09): WA = α / (α + W₀(−α e^{−α})), with α = physical / logical pages.
// W₀, the principal branch of Lambert's W, comes from Newton's method on
// w·e^w = x started at 0, from where it converges monotonically for
// x ∈ (−1/e, 0).
func greedyWA(alpha float64) float64 {
	x := -alpha * math.Exp(-alpha)
	w := 0.0
	for i := 0; i < 100; i++ {
		ew := math.Exp(w)
		step := (w*ew - x) / (ew * (w + 1))
		w -= step
		if math.Abs(step) < 1e-14 {
			break
		}
	}
	return alpha / (alpha + w)
}

// TestE2MatchesGreedyModel holds every full-size E2 row at OP ≥ 7 % within
// ±6 % of the closed form, at three seeds. α uses E2's own geometry: the
// raw pages over the logical ones, which are raw/(1+OP) less the
// calibrated 21-block reserve. The 0 % row is left out: there the model
// reads 12.4 against E2's 14.3, a residual the model's infinite blocks do
// not capture.
func TestE2MatchesGreedyModel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size E2 at three seeds")
	}
	g := e2Geometry()
	raw := float64(g.TotalPages())
	reserve := float64(21 * g.PagesPerBlock)
	e2, _ := ByID("E2")
	for _, seed := range []int64{42, 7, 13} {
		rep, err := e2.Run(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			op, err1 := strconv.ParseFloat(row[0], 64)
			wa, err2 := strconv.ParseFloat(row[1], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: unparsable row %q", seed, row)
			}
			if op < 7 {
				continue
			}
			model := greedyWA(raw / (raw/(1+op/100) - reserve))
			if r := wa / model; r < 0.94 || r > 1.06 {
				t.Errorf("seed %d, OP %.0f%%: E2 %.2f vs model %.2f (ratio %.3f, band ±6%%)", seed, op, wa, model, r)
			}
		}
	}
}
