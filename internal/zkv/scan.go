package zkv

import (
	"bytes"

	"blockhead/internal/sim"
)

// Scan visits every live key in [start, limit) in ascending order, calling
// fn with each key/value; fn returning false stops early. A nil limit means
// "to the end". Tombstones and shadowed versions are skipped. The returned
// time includes all table reads the scan needed. fn must not write to db:
// a write may compact away a table the scan is still reading, and the
// backend reuses a deleted table's memory.
func (db *DB) Scan(at sim.Time, start, limit []byte, fn func(key, value []byte) bool) (sim.Time, error) {
	// Sources newest first: the memtable, each L0 table, then one run per
	// deeper level, whose tables are disjoint and sorted. Of each run, read
	// the entry region, from start's chunk on, of every table that can hold a
	// key in [start, limit).
	var m merger
	m.add(mergeSource{mem: db.mem.iter()}, start)
	runs := append(newestFirst(db.levels[0]), db.levels[1:]...)
	spills := make([]spillBufs, len(runs))
	for r, tables := range runs {
		var run []blobIter
		for _, t := range tables {
			if limit != nil && bytes.Compare(t.firstKey, limit) >= 0 {
				continue
			}
			if bytes.Compare(t.lastKey, start) < 0 {
				continue
			}
			lo, _ := t.chunkFor(start)
			run = append(run, blobIter{spill: &spills[r]})
			done, err := db.readEntries(at, t, lo, t.indexOff, &run[len(run)-1])
			if err != nil {
				return at, err
			}
			at = sim.Max(at, done)
		}
		m.add(mergeSource{run: run}, start)
	}

	for m.next() {
		if limit != nil && bytes.Compare(m.key, limit) >= 0 {
			break
		}
		// fn gets private copies: the key and value live in table buffers
		// and memtable nodes.
		if m.value != nil && !fn(append([]byte(nil), m.key...), cloneOrNil(m.value)) {
			break
		}
	}
	return at, m.err
}
