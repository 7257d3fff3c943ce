package survey

import (
	"math"
	"strings"
	"testing"
)

// The reproduced Table 1 must match the published numbers exactly.
func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	want := map[Venue][4]int{
		FAST: {9, 8, 23, 8},
		OSDI: {3, 0, 4, 0},
		SOSP: {2, 2, 2, 0},
		MSST: {10, 7, 16, 10},
	}
	wantPubs := map[Venue]int{FAST: 126, OSDI: 164, SOSP: 77, MSST: 98}
	for _, r := range tbl.Rows {
		if r.Counts != want[r.Venue] {
			t.Errorf("%s counts = %v, want %v", r.Venue, r.Counts, want[r.Venue])
		}
		if r.Pubs != wantPubs[r.Venue] {
			t.Errorf("%s pubs = %d, want %d", r.Venue, r.Pubs, wantPubs[r.Venue])
		}
	}
	if tbl.Total.Counts != [4]int{24, 17, 45, 18} {
		t.Errorf("total counts = %v, want [24 17 45 18]", tbl.Total.Counts)
	}
	if tbl.Total.Pubs != 465 {
		t.Errorf("total pubs = %d, want 465", tbl.Total.Pubs)
	}
	if tbl.Classified() != 104 {
		t.Errorf("classified = %d, want 104", tbl.Classified())
	}
}

// The paper's headline: 23% simplified/solved, 59% affected, 18% orthogonal.
func TestHeadlineShares(t *testing.T) {
	s, a, o := Table1().Shares()
	if math.Abs(s-0.23) > 0.01 {
		t.Errorf("simplified share = %.3f, want ~0.23", s)
	}
	if math.Abs(a-0.59) > 0.01 {
		t.Errorf("affected share = %.3f, want ~0.59", a)
	}
	if math.Abs(o-0.18) > 0.01 {
		t.Errorf("orthogonal share = %.3f, want ~0.18", o)
	}
}

func TestCorpusComposition(t *testing.T) {
	corpus := Corpus()
	if len(corpus) != 104 {
		t.Fatalf("corpus size = %d, want 104", len(corpus))
	}
	keys := map[string]bool{}
	real, synth := 0, 0
	for _, p := range corpus {
		if keys[p.Key] {
			t.Errorf("duplicate key %q", p.Key)
		}
		keys[p.Key] = true
		if p.Title == "" || p.Year < 2016 || p.Year > 2021 {
			t.Errorf("bad entry: %+v", p)
		}
		if p.Synthetic {
			synth++
		} else {
			real++
		}
	}
	if real != len(realPapers) {
		t.Errorf("real entries = %d, want %d", real, len(realPapers))
	}
	if synth != 104-len(realPapers) {
		t.Errorf("synthetic entries = %d", synth)
	}
	// Synthetic entries must be visibly synthetic.
	for _, p := range corpus {
		if p.Synthetic && !strings.HasPrefix(p.Key, "synth-") {
			t.Errorf("synthetic entry with non-synthetic key %q", p.Key)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(), Corpus()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Corpus() is not deterministic")
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{Simplified: "Simpl", Approach: "Appr",
		Results: "Res", Orthogonal: "Orth"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if Category(9).String() != "Category(9)" {
		t.Error("unknown category String wrong")
	}
}

func TestTabulateIgnoresUnknownVenue(t *testing.T) {
	tbl := tabulate([]Paper{{Key: "x", Venue: "ATC", Cat: Simplified}})
	if tbl.Classified() != 0 {
		t.Error("unknown venue counted")
	}
}

func TestVenuePubCountUnknown(t *testing.T) {
	if VenuePubCount("ATC") != 0 {
		t.Error("unknown venue pub count must be 0")
	}
}
