package zkv

// The compaction this package had before its merge inputs were chained into
// runs — one merge source per input table with an explicit priority, a
// linear splitOverlap and a re-sorting insertSorted — kept verbatim (names
// prefixed, nothing else changed) as the oracle for compact_test.go. It
// builds each output with a fresh tableBuilder, so it also checks that the
// DB's reused builder leaks nothing from one table into the next.

import (
	"bytes"
	"sort"

	"blockhead/internal/sim"
)

// oracleSource is one input stream to a compaction merge. Lower prio wins
// on equal keys (upper levels and newer L0 tables shadow older data).
type oracleSource struct {
	it   *blobIter
	prio int
	ok   bool
}

func (s *oracleSource) advance() { s.ok = s.it.next() }

// oracleCompactL0 merges every L0 table with the overlapping part of L1.
func (db *DB) oracleCompactL0(at sim.Time) (sim.Time, error) {
	inputs := append([]*tableMeta(nil), db.levels[0]...)
	if len(inputs) == 0 {
		return at, nil
	}
	lo, hi := keyRange(inputs)
	overlap, rest := oracleSplitOverlap(db.levels[1], lo, hi)

	// Newest L0 table gets the best priority; all (disjoint) L1 tables
	// share the worst.
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].seq > inputs[j].seq })
	var sources []*tableMeta
	prios := make([]int, 0, len(inputs)+len(overlap))
	for i, t := range inputs {
		sources = append(sources, t)
		prios = append(prios, i)
	}
	for _, t := range overlap {
		sources = append(sources, t)
		prios = append(prios, len(inputs))
	}

	outs, done, err := db.oracleMerge(at, sources, prios, 1)
	if err != nil {
		return at, err
	}
	db.levels[0] = db.levels[0][:0]
	db.levels[1] = oracleInsertSorted(rest, outs)
	if err := db.dropTables(done, append(inputs, overlap...)); err != nil {
		return done, err
	}
	db.stats.Compactions++
	return done, nil
}

// oracleCompactLevel pushes one table from level l into l+1 (picked round-robin
// by key order via a per-level cursor key).
func (db *DB) oracleCompactLevel(at sim.Time, l int) (sim.Time, error) {
	lvl := db.levels[l]
	if len(lvl) == 0 {
		return at, nil
	}
	victim := db.pickCompactionVictim(l)
	overlap, rest := oracleSplitOverlap(db.levels[l+1], victim.firstKey, victim.lastKey)

	sources := append([]*tableMeta{victim}, overlap...)
	prios := make([]int, len(sources))
	for i := 1; i < len(prios); i++ {
		prios[i] = 1
	}
	outs, done, err := db.oracleMerge(at, sources, prios, l+1)
	if err != nil {
		return at, err
	}
	// Remove the victim from level l.
	cur := db.levels[l]
	for i, t := range cur {
		if t == victim {
			db.levels[l] = append(cur[:i], cur[i+1:]...)
			break
		}
	}
	db.levels[l+1] = oracleInsertSorted(rest, outs)
	if err := db.dropTables(done, append([]*tableMeta{victim}, overlap...)); err != nil {
		return done, err
	}
	db.stats.Compactions++
	return done, nil
}

// merge reads all sources, merges them newest-wins, and writes output
// tables to outLevel. Tombstones are dropped only when outLevel is the
// bottom level (nothing deeper could hold an older version).
func (db *DB) oracleMerge(at sim.Time, tables []*tableMeta, prios []int, outLevel int) ([]*tableMeta, sim.Time, error) {
	bottom := outLevel == db.opts.MaxLevels-1
	done := at
	srcs := make([]*oracleSource, len(tables))
	for i, t := range tables {
		d, blob, err := db.backend.ReadAt(at, t.handle, 0, t.sizeB)
		if err != nil {
			return nil, at, err
		}
		done = sim.Max(done, d)
		db.stats.CompactionReadBytes += uint64(t.sizeB)
		srcs[i] = &oracleSource{it: &blobIter{data: blob[:t.indexOff]}, prio: prios[i]}
		srcs[i].advance()
	}

	var outs []*tableMeta
	b := new(tableBuilder)
	emit := func() error {
		blob, meta := b.finish()
		h, wDone, err := db.backend.WriteTable(done, blob, outLevel)
		if err != nil {
			return err
		}
		done = sim.Max(done, wDone)
		meta.handle = h
		meta.level = outLevel
		db.seq++
		meta.seq = db.seq
		outs = append(outs, meta)
		db.stats.CompactionWrittenBytes += uint64(len(blob))
		return nil
	}

	for {
		// Find the smallest key; among equals, the best (lowest) priority.
		best := -1
		for i, s := range srcs {
			if !s.ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c := bytes.Compare(s.it.key, srcs[best].it.key)
			if c < 0 || (c == 0 && s.prio < srcs[best].prio) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		key, value := srcs[best].it.key, srcs[best].it.value
		if !(value == nil && bottom) { // drop tombstones at the bottom
			b.add(key, value)
		}
		// Skip shadowed versions of the same key in every source.
		for _, s := range srcs {
			for s.ok && bytes.Equal(s.it.key, key) {
				s.advance()
			}
		}
		if b.sizeEstimate() >= db.opts.TableTargetBytes {
			if err := emit(); err != nil {
				return nil, done, err
			}
			b = new(tableBuilder)
		}
	}
	for _, s := range srcs {
		if s.it.err != nil {
			return nil, done, s.it.err
		}
	}
	if !b.empty() {
		if err := emit(); err != nil {
			return nil, done, err
		}
	}
	return outs, done, nil
}

// oracleSplitOverlap partitions a sorted level into tables overlapping [lo, hi]
// and the rest.
func oracleSplitOverlap(lvl []*tableMeta, lo, hi []byte) (overlap, rest []*tableMeta) {
	for _, t := range lvl {
		if bytes.Compare(t.lastKey, lo) < 0 || bytes.Compare(t.firstKey, hi) > 0 {
			rest = append(rest, t)
		} else {
			overlap = append(overlap, t)
		}
	}
	return overlap, rest
}

// oracleInsertSorted merges new tables into a (disjoint) sorted level.
func oracleInsertSorted(lvl, outs []*tableMeta) []*tableMeta {
	lvl = append(lvl, outs...)
	sort.Slice(lvl, func(i, j int) bool {
		return bytes.Compare(lvl[i].firstKey, lvl[j].firstKey) < 0
	})
	return lvl
}
