package reclaim

import (
	"math/rand"
	"testing"

	"blockhead/internal/sim"
)

// checkLists asserts the lists are well formed (Index.Check) and agree with
// the model: every member in the bucket of its key, and nothing else linked.
func checkLists(t *testing.T, x *Index, model map[int]int, step int) {
	t.Helper()
	if err := x.Check(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for u := range x.n {
		key, member := x.Key(u)
		if want, ok := model[u]; member != ok || (member && key != want) {
			t.Fatalf("step %d: Key(%d) = %d, %v; model %d, %v", step, u, key, member, want, ok)
		}
	}
}

// TestCheckCatchesDamage inserts a unit that is already a member — in its
// own bucket and in another, at the head and inside a list — and breaks a
// back link, a key and a member mark by hand: Check must report each.
func TestCheckCatchesDamage(t *testing.T) {
	fresh := func() *Index {
		x := NewIndex(6, 4)
		for u, k := range []int{1, 1, 1, 2, 3} {
			x.Insert(u, k)
		}
		if err := x.Check(); err != nil {
			t.Fatalf("well-formed index: %v", err)
		}
		return &x
	}
	for _, c := range []struct {
		name   string
		damage func(x *Index)
	}{
		{"re-insert list head, same bucket", func(x *Index) { x.Insert(2, 1) }},
		{"re-insert list tail, same bucket", func(x *Index) { x.Insert(0, 1) }},
		{"re-insert mid-list, other bucket", func(x *Index) { x.Insert(1, 2) }},
		{"re-insert head, other bucket", func(x *Index) { x.Insert(2, 3) }},
		{"back link", func(x *Index) { x.n[0].prev = 2 }},
		{"key", func(x *Index) { x.n[3].key = 1 }},
		{"member mark", func(x *Index) { x.n[5].prev = -1 }},
	} {
		x := fresh()
		c.damage(x)
		if err := x.Check(); err == nil {
			t.Errorf("%s: Check found nothing", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

// TestIndexMatchesModel drives random inserts, removals and moves against a
// map, and every pick against a scan of it, with and without a tie-break
// and a score.
func TestIndexMatchesModel(t *testing.T) {
	const units, top = 40, 8
	wear := make([]int, units)
	for _, c := range []struct {
		name  string
		less  func(a, b int) bool
		score func(at sim.Time, u int) float64
	}{
		{"lowest unit", nil, nil},
		{"least worn", func(a, b int) bool { return wear[a] < wear[b] || (wear[a] == wear[b] && a < b) }, nil},
		{"scored", nil, func(at sim.Time, u int) float64 { return float64((int(at) + u*7) % 5) }},
	} {
		rng := rand.New(rand.NewSource(1))
		x := NewIndex(units, top)
		x.Score = c.score
		if c.less != nil {
			x.Less = c.less
		}
		model := make(map[int]int)
		for step := 0; step < 20000; step++ {
			u := rng.Intn(units)
			_, member := model[u]
			switch op := rng.Intn(4); {
			case op == 0 && !member:
				k := rng.Intn(top + 1)
				x.Insert(u, k)
				model[u] = k
			case op == 1:
				x.Remove(u)
				delete(model, u)
			case op == 2:
				delta := rng.Intn(3) - 1
				if k, ok := model[u]; ok && k+delta >= 0 && k+delta <= top {
					model[u] = k + delta
					x.Add(u, delta)
				} else if !ok {
					x.Add(u, delta) // a non-member is left alone
				}
			default:
				wear[u]++
			}
			if step%97 == 0 {
				checkLists(t, &x, model, step)
			}
			at := sim.Time(step)
			want := -1
			var wantScore float64
			for v := 0; v < units; v++ {
				k, ok := model[v]
				if !ok || k == top {
					continue
				}
				if want < 0 {
					want = v
					if c.score != nil {
						wantScore = c.score(at, v)
					}
					continue
				}
				if c.score != nil {
					s := c.score(at, v)
					if s > wantScore || (s == wantScore && x.Less(v, want)) {
						want, wantScore = v, s
					}
				} else if k < model[want] || (k == model[want] && x.Less(v, want)) {
					want = v
				}
			}
			if got := x.Pick(at); got != want {
				t.Fatalf("%s: step %d: Pick = %d, scan = %d", c.name, step, got, want)
			}
		}
		x.Clear()
		checkLists(t, &x, map[int]int{}, -1)
	}
}
