package ftl

import "blockhead/internal/sim"

// The GC victim index holds exactly the blocks garbage collection may
// reclaim: not bad, not free, not referenced by any frontier slot, and closed
// to programs (fully written, or sealed by crash recovery). Members sit in a
// doubly-linked list per valid-page count, threaded through vicNext/vicPrev,
// so a pick looks at the emptiest blocks only and every update is O(1) with
// no allocation. Membership changes in four places: a frontier slot moving
// off a block (moveFrontier), a valid count dropping (decValid), an erase
// (indexRemove), and Recover's rebuild.

// notIndexed marks a block outside the index in vicPrev; list heads carry -1.
const notIndexed = int32(-2)

// resetVictimIndex empties the index.
func (d *Device) resetVictimIndex() {
	for v := range d.vicHead {
		d.vicHead[v] = -1
	}
	for b := range d.vicPrev {
		d.vicPrev[b] = notIndexed
	}
}

// reclaimable reports whether block qualifies for the index once no frontier
// slot references it.
func (d *Device) reclaimable(block int) bool {
	return !d.chip.IsBad(block) && !d.freeBit[block] &&
		(d.chip.WrittenPages(block) >= d.pages || d.chip.IsSealed(block))
}

// indexInsert links block at the head of its valid-count bucket.
func (d *Device) indexInsert(block int) {
	b, v := int32(block), d.valid[block]
	next := d.vicHead[v]
	d.vicNext[b], d.vicPrev[b] = next, -1
	if next >= 0 {
		d.vicPrev[next] = b
	}
	d.vicHead[v] = b
}

// indexRemove unlinks block from its bucket; a non-member is left alone.
func (d *Device) indexRemove(block int) {
	b := int32(block)
	prev, next := d.vicPrev[b], d.vicNext[b]
	if prev == notIndexed {
		return
	}
	if prev >= 0 {
		d.vicNext[prev] = next
	} else {
		d.vicHead[d.valid[block]] = next
	}
	if next >= 0 {
		d.vicPrev[next] = prev
	}
	d.vicPrev[b] = notIndexed
}

// decValid drops block's valid count by one, moving an indexed block down a
// bucket. (Counts only rise on frontier blocks, which are never members.)
func (d *Device) decValid(block int) {
	if d.vicPrev[block] == notIndexed {
		d.valid[block]--
		return
	}
	d.indexRemove(block)
	d.valid[block]--
	d.indexInsert(block)
}

// pickVictim selects a GC victim per the configured policy, or -1 if no
// block is eligible: an index member other than the in-flight incremental
// victim with at least one dead page. Greedy takes the fewest valid pages;
// CostBenefit the highest age-weighted benefit/cost score, which depends on
// at and so is computed per pick over every member. Ties break toward the
// least-erased block (wear leveling), then the lowest block number.
func (d *Device) pickVictim(at sim.Time) int {
	best := -1
	var bestScore float64
	for v := 0; v < d.pages; v++ {
		for m := d.vicHead[v]; m >= 0; m = d.vicNext[m] {
			b := int(m)
			if b == d.gcVictim {
				continue
			}
			var score float64 // Greedy: equal within a bucket
			if d.cfg.GCPolicy == CostBenefit {
				score = d.costBenefit(at, b)
			}
			if best < 0 || score > bestScore || (score == bestScore && d.lessWorn(b, best)) {
				best, bestScore = b, score
			}
		}
		if best >= 0 && d.cfg.GCPolicy != CostBenefit {
			break // the lowest occupied bucket decides
		}
	}
	if d.pickHook != nil {
		d.pickHook(at, best)
	}
	return best
}

// costBenefit scores block for the CostBenefit policy.
func (d *Device) costBenefit(at sim.Time, block int) float64 {
	u := float64(d.valid[block]) / float64(d.pages)
	age := float64(at-d.lastInval[block]) + 1
	if u == 0 {
		return age * 1e12 // free lunch: a fully dead block
	}
	return age * (1 - u) / (2 * u)
}

// lessWorn orders blocks by erase count, then block number.
func (d *Device) lessWorn(a, b int) bool {
	ea, eb := d.chip.EraseCount(a), d.chip.EraseCount(b)
	return ea < eb || (ea == eb && a < b)
}
