package zkv

import (
	"bytes"
	"sort"

	"blockhead/internal/sim"
)

// Options tune the LSM tree. Zero values get defaults suitable for the
// simulated device sizes in this repository.
type Options struct {
	// MemtableBytes triggers a flush when the memtable reaches this size.
	// Default 128 KiB.
	MemtableBytes int64
	// L0CompactAt triggers an L0->L1 compaction at this many L0 tables.
	// Default 4.
	L0CompactAt int
	// BaseLevelBytes is L1's size budget; level L holds LevelRatio^(L-1)
	// times more. Default 512 KiB.
	BaseLevelBytes int64
	// LevelRatio is the per-level growth factor. Default 10.
	LevelRatio int
	// MaxLevels bounds the tree depth. Default 6.
	MaxLevels int
	// TableTargetBytes caps individual SSTable size. Default 64 KiB.
	TableTargetBytes int
	// Seed drives the skiplist's level coin flips.
	Seed int64
	// DisableWAL skips write-ahead logging (for ablations).
	DisableWAL bool
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 128 << 10
	}
	if o.L0CompactAt == 0 {
		o.L0CompactAt = 4
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 512 << 10
	}
	if o.LevelRatio == 0 {
		o.LevelRatio = 10
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 6
	}
	if o.TableTargetBytes == 0 {
		o.TableTargetBytes = 64 << 10
	}
	return o
}

// Stats summarizes LSM activity.
type Stats struct {
	Puts        uint64
	Gets        uint64
	Flushes     uint64
	Compactions uint64
	TablesNow   int
	// CompactionRead/WrittenBytes measure LSM-level (application) write
	// amplification; the device adds its own on top.
	CompactionReadBytes    uint64
	CompactionWrittenBytes uint64
	FlushedBytes           uint64
	UserWrittenBytes       uint64
}

// AppWriteAmp reports application-level WA: bytes written to storage
// (flushes + compaction output) per user byte.
func (s Stats) AppWriteAmp() float64 {
	if s.UserWrittenBytes == 0 {
		return 1
	}
	return float64(s.FlushedBytes+s.CompactionWrittenBytes) / float64(s.UserWrittenBytes)
}

// DB is the LSM-tree key-value store.
type DB struct {
	opts    Options
	backend Backend
	seg     int // segBytes of the backend's page size

	mem    *memtable
	tb     tableBuilder   // builds every table, flushed or compacted; empty in between
	spill  spillBufs      // Get's straddling entries; Get clones its value before the next read
	levels [][]*tableMeta // levels[0] unsorted (newest last); 1+ sorted, disjoint
	seq    uint64
	cursor [][]byte // per-level compaction cursor (last victim's lastKey)

	stats Stats
	// lastStallNs records how long the most recent Put waited on flush +
	// compaction — the LSM analogue of the device GC stall.
	lastStall sim.Time
}

// Open creates an empty store over backend.
func Open(backend Backend, opts Options) *DB {
	o := opts.withDefaults()
	return &DB{
		opts:    o,
		backend: backend,
		seg:     segBytes(backend.PageSize()),
		mem:     newMemtable(o.Seed),
		levels:  make([][]*tableMeta, o.MaxLevels),
	}
}

// Stats returns a snapshot of LSM activity.
func (db *DB) Stats() Stats {
	s := db.stats
	for _, lvl := range db.levels {
		s.TablesNow += len(lvl)
	}
	return s
}

// LastStall reports the flush/compaction stall charged to the latest Put.
func (db *DB) LastStall() sim.Time { return db.lastStall }

// Put inserts or overwrites a key.
func (db *DB) Put(at sim.Time, key, value []byte) (sim.Time, error) {
	if value == nil {
		value = []byte{}
	}
	return db.write(at, key, value)
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(at sim.Time, key []byte) (sim.Time, error) {
	return db.write(at, key, nil)
}

func (db *DB) write(at sim.Time, key, value []byte) (sim.Time, error) {
	start := at
	db.stats.Puts++
	db.stats.UserWrittenBytes += uint64(len(key) + len(value))
	if !db.opts.DisableWAL {
		var err error
		at, err = db.backend.AppendWAL(at, len(key)+len(value)+8)
		if err != nil {
			return at, err
		}
	}
	// The memtable's copies of key and value share one allocation.
	kv := make([]byte, len(key)+len(value))
	copy(kv[copy(kv, key):], value)
	k, v := kv[:len(key):len(key)], kv[len(key):]
	if value == nil {
		v = nil
	}
	db.mem.put(k, v)
	if db.mem.sizeBytes() >= db.opts.MemtableBytes {
		var err error
		at, err = db.Flush(at)
		if err != nil {
			return at, err
		}
	}
	db.lastStall = at - start
	return at, nil
}

// cloneOrNil copies v, preserving the nil-means-tombstone distinction:
// a non-nil empty slice must stay non-nil (an empty value, not a delete).
func cloneOrNil(v []byte) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// Get looks a key up through memtable, L0 (newest first), then each deeper
// level. The returned time includes every page read the probe needed.
func (db *DB) Get(at sim.Time, key []byte) (done sim.Time, value []byte, found bool, err error) {
	db.stats.Gets++
	if v, ok := db.mem.get(key); ok {
		return at, cloneOrNil(v), v != nil, nil
	}
	hash := bloomHash(key) // once, for every table's filter
	// L0: newest table wins.
	for i := len(db.levels[0]) - 1; i >= 0; i-- {
		t := db.levels[0][i]
		if !t.mayContain(key) {
			continue
		}
		at, value, found, err = db.searchTable(at, t, key, hash)
		if err != nil || found || value != nil {
			break
		}
	}
	if err == nil && !found && value == nil {
		for l := 1; l < len(db.levels); l++ {
			t := db.findInLevel(l, key)
			if t == nil {
				continue
			}
			at, value, found, err = db.searchTable(at, t, key, hash)
			if err != nil || found || value != nil {
				break
			}
		}
	}
	if err != nil || !found {
		return at, nil, false, err // miss or tombstone
	}
	return at, cloneOrNil(value), true, nil // the caller's own: value aliases the stored table
}

// searchTable probes one table for key, whose bloomHash is hash. Outcomes:
//   - live value: (value, found=true)
//   - tombstone:  (tombstoneMark, found=false) — definitive miss
//   - absent:     (nil, found=false) — keep descending
//
// A live value aliases the chunk ReadAt returned, which may be the stored
// table itself, or db.spill, where an entry that straddles a segment cut is
// copied: Get copies it before handing it out, and before any later read.
func (db *DB) searchTable(at sim.Time, t *tableMeta, key []byte, hash uint64) (sim.Time, []byte, bool, error) {
	if !t.filter.mayContain(hash) {
		return at, nil, false, nil // Bloom-negative: no I/O at all
	}
	lo, hi := t.chunkFor(key)
	if lo >= hi {
		return at, nil, false, nil
	}
	it := blobIter{spill: &db.spill}
	done, err := db.readEntries(at, t, lo, hi, &it)
	if err != nil {
		return at, nil, false, err
	}
	for it.next() {
		c := bytes.Compare(it.key, key)
		if c > 0 {
			break
		}
		if c == 0 {
			if it.value == nil {
				return done, tombstoneMark, false, nil
			}
			return done, it.value, true, nil
		}
	}
	if it.err != nil {
		return done, nil, false, it.err
	}
	return done, nil, false, nil
}

// readEntries reads bytes [off, end) of table t as one ReadAt per segment
// the span touches, all at time at, so each piece is a window of a stored
// segment and nothing is copied. The pages are read once each, in order,
// exactly as one ReadAt of the span would read them. It points it, which
// must have no pieces yet, at the pieces' bytes below t.indexOff, the entry
// region. A span of more than maxPieces segments reads its tail as one
// piece, which ReadAt copies.
func (db *DB) readEntries(at sim.Time, t *tableMeta, off, end int, it *blobIter) (sim.Time, error) {
	done := at
	for pos, i := off, 0; pos < end; i++ {
		next := min(end, (pos/db.seg+1)*db.seg)
		if i == maxPieces-1 {
			next = end
		}
		d, p, err := db.backend.ReadAt(at, t.handle, pos, next-pos)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
		p = p[:max(0, min(len(p), t.indexOff-pos))]
		if i == 0 {
			it.data = p
		} else {
			it.later[i-1], it.pieces = p, i
		}
		pos = next
	}
	return done, nil
}

// tombstoneMark is a non-nil, zero-length sentinel distinguishing "found a
// tombstone, stop searching" from "not in this table". It never escapes
// Get: callers receive found=false and must treat value as absent.
var tombstoneMark = make([]byte, 0)

// findInLevel binary-searches a sorted level for the table covering key.
func (db *DB) findInLevel(l int, key []byte) *tableMeta {
	lvl := db.levels[l]
	i := sort.Search(len(lvl), func(i int) bool {
		return bytes.Compare(lvl[i].lastKey, key) >= 0
	})
	if i < len(lvl) && lvl[i].mayContain(key) {
		return lvl[i]
	}
	return nil
}

// Flush writes the memtable to an L0 table (or several, if it exceeds the
// table size target), resets the WAL, and runs any compactions that the
// flush makes necessary.
func (db *DB) Flush(at sim.Time) (sim.Time, error) {
	if db.mem.len() == 0 {
		return at, nil
	}
	it := db.mem.iter()
	b := &db.tb
	emit := func() error {
		blob, meta := b.finish()
		h, done, err := db.backend.WriteTable(at, blob, 0)
		if err != nil {
			return err
		}
		at = sim.Max(at, done)
		meta.handle = h
		meta.level = 0
		db.seq++
		meta.seq = db.seq
		db.levels[0] = append(db.levels[0], meta)
		db.stats.FlushedBytes += uint64(len(blob))
		return nil
	}
	for it.next() {
		b.add(it.key(), it.value())
		if b.sizeEstimate() >= db.opts.TableTargetBytes {
			if err := emit(); err != nil {
				return at, err
			}
		}
	}
	if !b.empty() {
		if err := emit(); err != nil {
			return at, err
		}
	}
	db.mem = newMemtable(db.opts.Seed + int64(db.seq))
	if !db.opts.DisableWAL {
		if err := db.backend.ResetWAL(at); err != nil {
			return at, err
		}
	}
	db.stats.Flushes++
	return db.maybeCompact(at)
}

// maxBytes is level L's size budget.
func (db *DB) maxBytes(l int) int64 {
	b := db.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		b *= int64(db.opts.LevelRatio)
	}
	return b
}

func levelBytes(lvl []*tableMeta) int64 {
	var n int64
	for _, t := range lvl {
		n += int64(t.sizeB)
	}
	return n
}

// maybeCompact runs compactions until every level fits its budget.
func (db *DB) maybeCompact(at sim.Time) (sim.Time, error) {
	for {
		if len(db.levels[0]) >= db.opts.L0CompactAt {
			var err error
			at, err = db.compactL0(at)
			if err != nil {
				return at, err
			}
			continue
		}
		progressed := false
		for l := 1; l < db.opts.MaxLevels-1; l++ {
			if levelBytes(db.levels[l]) > db.maxBytes(l) {
				var err error
				at, err = db.compactLevel(at, l)
				if err != nil {
					return at, err
				}
				progressed = true
				break
			}
		}
		if !progressed {
			return at, nil
		}
	}
}
