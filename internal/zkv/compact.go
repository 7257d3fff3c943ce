package zkv

import (
	"bytes"
	"sort"

	"blockhead/internal/sim"
)

// mergeSource is one sorted input to a merge: a run of tables that is
// sorted and disjoint (a whole level's overlap, or a single L0 table), read
// one table after another, or — for Scan — the memtable.
type mergeSource struct {
	run        []blobIter // tables still to read, in key order
	mem        *memIter   // the memtable instead of a run
	key, value []byte
	ok         bool
}

// advance steps to the source's next entry; a corrupt table ends the
// source and is returned.
func (s *mergeSource) advance() error {
	if s.mem != nil {
		if s.ok = s.mem.next(); s.ok {
			s.key, s.value = s.mem.key(), s.mem.value()
		}
		return nil
	}
	s.ok = false
	for len(s.run) > 0 {
		it := &s.run[0]
		if it.next() {
			s.key, s.value, s.ok = it.key, it.value, true
			return nil
		}
		if it.err != nil {
			return it.err
		}
		s.run = s.run[1:] // this table is done: on to the next of the run
	}
	return nil
}

// merger is the package's one k-way merge: it yields each distinct key
// once, in ascending order, with its newest version. Sources are listed
// newest first — on equal keys the earlier source wins and the later ones'
// versions are skipped as shadowed. Compaction and Scan both run on it.
type merger struct {
	srcs       []mergeSource
	key, value []byte // valid until the tables' buffers are dropped
	err        error
}

// add appends a source (older than every source added before it),
// positioned at its first entry at or after start.
func (m *merger) add(s mergeSource, start []byte) {
	if m.err != nil {
		return
	}
	m.err = s.advance()
	for m.err == nil && s.ok && bytes.Compare(s.key, start) < 0 {
		m.err = s.advance()
	}
	m.srcs = append(m.srcs, s)
}

// next moves to the next key; it reports false at the end of every source
// or at the first corrupt table, which err then holds.
func (m *merger) next() bool {
	if m.err != nil {
		return false
	}
	best := -1
	for i := range m.srcs {
		s := &m.srcs[i]
		if s.ok && (best < 0 || bytes.Compare(s.key, m.srcs[best].key) < 0) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	m.key, m.value = m.srcs[best].key, m.srcs[best].value
	// Step every source past this key. No source earlier than best holds it.
	for i := best; i < len(m.srcs); i++ {
		for s := &m.srcs[i]; s.ok && bytes.Equal(s.key, m.key); {
			if m.err = s.advance(); m.err != nil {
				return false
			}
		}
	}
	return true
}

// compactL0 merges every L0 table with the overlapping part of L1.
func (db *DB) compactL0(at sim.Time) (sim.Time, error) {
	l0 := db.levels[0]
	if len(l0) == 0 {
		return at, nil
	}
	lo, hi := keyRange(l0)
	overlap, rest := splitOverlap(db.levels[1], lo, hi)

	// The overlapping L1 tables are disjoint and sorted, so they form a
	// single run, older than every L0 table.
	runs := append(newestFirst(l0), overlap)
	outs, done, err := db.merge(at, runs, 1)
	if err != nil {
		return at, err
	}
	db.levels[0] = db.levels[0][:0]
	db.levels[1] = insertSorted(rest, outs)
	for _, run := range runs {
		if err := db.dropTables(done, run); err != nil {
			return done, err
		}
	}
	db.stats.Compactions++
	return done, nil
}

// newestFirst lists L0's tables as merge runs: they may overlap each other,
// so each is a run of its own, the last flushed first.
func newestFirst(l0 []*tableMeta) [][]*tableMeta {
	runs := make([][]*tableMeta, 0, len(l0)+1)
	for i := len(l0) - 1; i >= 0; i-- {
		runs = append(runs, l0[i:i+1])
	}
	return runs
}

// compactLevel pushes one table from level l into l+1 (picked round-robin
// by key order via a per-level cursor key).
func (db *DB) compactLevel(at sim.Time, l int) (sim.Time, error) {
	lvl := db.levels[l]
	if len(lvl) == 0 {
		return at, nil
	}
	victim := db.pickCompactionVictim(l)
	overlap, rest := splitOverlap(db.levels[l+1], victim.firstKey, victim.lastKey)

	outs, done, err := db.merge(at, [][]*tableMeta{{victim}, overlap}, l+1)
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
	db.levels[l+1] = insertSorted(rest, outs)
	if err := db.dropTables(done, append([]*tableMeta{victim}, overlap...)); err != nil {
		return done, err
	}
	db.stats.Compactions++
	return done, nil
}

// pickCompactionVictim rotates through a level's key space using the
// per-level cursor (the classic LevelDB strategy), so compaction pressure
// spreads instead of hammering one key range.
func (db *DB) pickCompactionVictim(l int) *tableMeta {
	lvl := db.levels[l]
	if db.cursor == nil {
		db.cursor = make([][]byte, db.opts.MaxLevels)
	}
	after := db.cursor[l]
	for _, t := range lvl {
		if after == nil || bytes.Compare(t.firstKey, after) > 0 {
			db.cursor[l] = t.lastKey
			return t
		}
	}
	db.cursor[l] = lvl[0].lastKey
	return lvl[0]
}

// merge reads every table of every run, merges the runs newest-wins (runs
// are listed newest first; each is sorted and disjoint), and writes output
// tables to outLevel. Tombstones are dropped only when outLevel is the
// bottom level (nothing deeper could hold an older version).
func (db *DB) merge(at sim.Time, runs [][]*tableMeta, outLevel int) ([]*tableMeta, sim.Time, error) {
	bottom := outLevel == db.opts.MaxLevels-1
	done := at
	m := merger{srcs: make([]mergeSource, 0, len(runs))}
	spills := make([]spillBufs, len(runs))
	for r, run := range runs {
		its := make([]blobIter, len(run))
		for i, t := range run {
			its[i].spill = &spills[r]
			d, err := db.readEntries(at, t, 0, t.sizeB, &its[i])
			if err != nil {
				return nil, at, err
			}
			done = sim.Max(done, d)
			db.stats.CompactionReadBytes += uint64(t.sizeB)
		}
		m.add(mergeSource{run: its}, nil)
	}

	var outs []*tableMeta
	b := &db.tb
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

	for m.next() {
		if !(m.value == nil && bottom) { // drop tombstones at the bottom
			b.add(m.key, m.value)
		}
		if b.sizeEstimate() >= db.opts.TableTargetBytes {
			if err := emit(); err != nil {
				return nil, done, err
			}
		}
	}
	if m.err != nil {
		b.reset()
		return nil, done, m.err
	}
	if !b.empty() {
		if err := emit(); err != nil {
			return nil, done, err
		}
	}
	return outs, done, nil
}

// dropTables deletes input tables from the backend after a compaction.
func (db *DB) dropTables(at sim.Time, tables []*tableMeta) error {
	for _, t := range tables {
		if err := db.backend.Delete(at, t.handle); err != nil {
			return err
		}
	}
	return nil
}

// keyRange returns the smallest and largest keys across tables.
func keyRange(tables []*tableMeta) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.firstKey, lo) < 0 {
			lo = t.firstKey
		}
		if hi == nil || bytes.Compare(t.lastKey, hi) > 0 {
			hi = t.lastKey
		}
	}
	return lo, hi
}

// splitOverlap partitions a sorted, disjoint level into the tables
// overlapping [lo, hi] — one contiguous stretch, so two binary searches find
// it — and the rest. overlap aliases lvl.
func splitOverlap(lvl []*tableMeta, lo, hi []byte) (overlap, rest []*tableMeta) {
	i := sort.Search(len(lvl), func(i int) bool { return bytes.Compare(lvl[i].lastKey, lo) >= 0 })
	j := i + sort.Search(len(lvl)-i, func(j int) bool { return bytes.Compare(lvl[i+j].firstKey, hi) > 0 })
	rest = make([]*tableMeta, 0, len(lvl)-(j-i))
	rest = append(append(rest, lvl[:i]...), lvl[j:]...)
	return lvl[i:j], rest
}

// insertSorted merges new tables into a (disjoint) sorted level. Both
// lists are already in key order, so this is one pass of a two-way merge.
func insertSorted(lvl, outs []*tableMeta) []*tableMeta {
	merged := make([]*tableMeta, 0, len(lvl)+len(outs))
	for len(lvl) > 0 && len(outs) > 0 {
		if bytes.Compare(outs[0].firstKey, lvl[0].firstKey) < 0 {
			merged, outs = append(merged, outs[0]), outs[1:]
		} else {
			merged, lvl = append(merged, lvl[0]), lvl[1:]
		}
	}
	return append(append(merged, lvl...), outs...)
}
