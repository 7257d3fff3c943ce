package ftl

import "blockhead/internal/sim"

// The GC victim index (reclaim.Index, keyed by valid-page count) holds
// exactly the blocks garbage collection may reclaim, other than the victims
// being reclaimed: not bad, not free, not referenced by any frontier slot,
// and closed to programs (fully written, or sealed by crash recovery). The
// five places its membership changes are listed in DESIGN.md, "Reclamation
// (both stacks)"; the ones in this package are a frontier slot moving off a
// block (moveFrontier) and Recover's rebuild, both through enter. Greedy
// picks the fewest valid pages; CostBenefit the highest age-weighted
// benefit/cost score, which depends on the pick time and so is computed per
// pick over every member. Ties break toward the least-erased block (wear
// leveling), then the lowest block number.

// enter adds block to the index, keyed by its valid pages, if it qualifies
// once no frontier slot references it.
func (d *Device) enter(block int) {
	if !d.chip.IsBad(block) && !d.freeBit[block] &&
		(d.chip.WrittenPages(block) >= d.pages || d.chip.IsSealed(block)) {
		d.gc.Insert(block, int(d.gc.Valid[block]))
	}
}

// costBenefit scores block for the CostBenefit policy.
func (d *Device) costBenefit(at sim.Time, block int) float64 {
	u := float64(d.gc.Valid[block]) / float64(d.pages)
	age := float64(at-d.gc.LastKill[block]) + 1
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
