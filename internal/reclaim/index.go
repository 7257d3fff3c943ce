// Package reclaim is the garbage-collection engine both storage stacks run:
// the conventional FTL over erasure blocks (internal/ftl) and the host FTL
// over zones (internal/hostftl). The paper's thesis is that ZNS moves this
// loop from the device to the host; the loop itself — pick the unit with the
// least live data, copy its live pages forward, erase it — does not change,
// so it is written once here. A stack supplies its erase unit's copy loop
// and erase (Engine.Copy, Engine.Erase) and its "low" predicate; its victim
// policy is configuration (Index.Less, Index.Score). See DESIGN.md,
// "Reclamation (both stacks)".
package reclaim

import (
	"fmt"

	"blockhead/internal/sim"
)

// notIndexed marks a unit outside the index in prev; list heads carry -1.
const notIndexed = int32(-2)

// node is one unit's links and key, kept together: a move touches one line.
type node struct{ next, prev, key int32 }

// Index holds the erase units a stack may reclaim in doubly-linked lists
// bucketed by a small integer key, lowest key best: a block's valid-page
// count, or a zone's page count minus its dead pages. A pick looks at the
// best bucket only, and every update is O(1) with no allocation after
// NewIndex. Units whose key is the top one (a block with every page valid, a
// zone with no dead page) are members but offer nothing, so picks skip them.
type Index struct {
	head []int32
	n    []node
	low  int // no member's key is below it
	// Less breaks ties within a bucket and between equal scores, so list
	// order never decides a pick. NewIndex sets the lower unit number.
	Less func(a, b int) bool
	// Score, when set, ranks every member — highest wins — instead of taking
	// the best bucket: a policy whose order moves with the pick time.
	Score func(at sim.Time, unit int) float64
}

// NewIndex returns an empty index over units erase units with keys 0..top.
func NewIndex(units, top int) Index {
	x := Index{
		head: make([]int32, top+1),
		n:    make([]node, units),
		Less: func(a, b int) bool { return a < b },
	}
	x.Clear()
	return x
}

// Clear empties the index.
func (x *Index) Clear() {
	fill(x.head, -1)
	x.low = len(x.head) - 1
	for u := range x.n {
		x.n[u].prev = notIndexed
	}
}

// Key reports a unit's bucket and whether it is a member.
func (x *Index) Key(unit int) (key int, member bool) {
	return int(x.n[unit].key), x.n[unit].prev != notIndexed
}

// Insert links a unit at the head of bucket key.
func (x *Index) Insert(unit, key int) {
	u, next := int32(unit), x.head[key]
	x.n[u] = node{next, -1, int32(key)}
	if next >= 0 {
		x.n[next].prev = u
	}
	x.head[key] = u
	x.low = min(x.low, key)
}

// Remove unlinks a unit; a non-member is left alone.
func (x *Index) Remove(unit int) {
	nd := &x.n[unit]
	prev, next := nd.prev, nd.next
	if prev == notIndexed {
		return
	}
	if prev >= 0 {
		x.n[prev].next = next
	} else {
		x.head[nd.key] = next
	}
	if next >= 0 {
		x.n[next].prev = prev
	}
	nd.prev = notIndexed
}

// Add moves a member delta buckets, as its live-page count moves; a
// non-member is left alone.
func (x *Index) Add(unit, delta int) {
	if x.n[unit].prev == notIndexed {
		return
	}
	x.Remove(unit)
	x.Insert(unit, int(x.n[unit].key)+delta)
}

// Check walks every bucket list and reports the first damage: a unit linked
// twice, a back link that disagrees with the walk, a unit in a bucket other
// than its key, or a member mark the lists do not agree with. Inserting a
// unit that is already a member is the mistake it exists to catch: the lists
// break without a panic.
func (x *Index) Check() error {
	seen := make([]bool, len(x.n))
	for k, head := range x.head {
		prev := int32(-1)
		for m := head; m >= 0; m = x.n[m].next {
			switch nd := x.n[m]; {
			case seen[m]:
				return fmt.Errorf("reclaim: unit %d linked twice (again in bucket %d)", m, k)
			case nd.prev != prev:
				return fmt.Errorf("reclaim: unit %d in bucket %d has prev %d, want %d", m, k, nd.prev, prev)
			case int(nd.key) != k:
				return fmt.Errorf("reclaim: unit %d with key %d linked in bucket %d", m, nd.key, k)
			}
			seen[m] = true
			prev = m
		}
	}
	for u := range x.n {
		if member := x.n[u].prev != notIndexed; member != seen[u] {
			return fmt.Errorf("reclaim: unit %d marked member=%v but linked=%v", u, member, seen[u])
		}
	}
	return nil
}

// Pick returns the best member, or -1 if none offers anything.
func (x *Index) Pick(at sim.Time) int {
	best := -1
	var bestScore float64
	for x.low < len(x.head)-1 && x.head[x.low] < 0 {
		x.low++
	}
	for k := x.low; k < len(x.head)-1; k++ {
		for m := x.head[k]; m >= 0; m = x.n[m].next {
			u := int(m)
			var score float64 // without Score: equal within a bucket
			if x.Score != nil {
				score = x.Score(at, u)
			}
			if best < 0 || score > bestScore || (score == bestScore && x.Less(u, best)) {
				best, bestScore = u, score
			}
		}
		if best >= 0 && x.Score == nil {
			break // the best occupied bucket decides
		}
	}
	return best
}
