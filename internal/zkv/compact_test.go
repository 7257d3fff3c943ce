package zkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"blockhead/internal/sim"
)

// recBackend records every table call with its arguments and result, and
// keeps a copy of every blob written, so two stores can be compared call by
// call and byte by byte. A table read split at segment cuts is logged as
// the one read it replaces: consecutive reads of one table at one time,
// each starting where the last ended, coalesce into one entry.
type recBackend struct {
	Backend
	log   []string
	blobs map[TableHandle][]byte
	read  *readRec // the read the log ends with, if it does
}

type readRec struct {
	at, done sim.Time
	h        TableHandle
	off, n   int
	err      error
}

func (r *readRec) String() string {
	return fmt.Sprintf("read at=%d h=%d off=%d n=%d -> done=%d err=%v", r.at, r.h, r.off, r.n, r.done, r.err)
}

func (r *recBackend) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	h, done, err := r.Backend.WriteTable(at, blob, level)
	r.log, r.read = append(r.log, fmt.Sprintf("write at=%d len=%d level=%d -> h=%d done=%d err=%v", at, len(blob), level, h, done, err)), nil
	r.blobs[h] = append([]byte(nil), blob...)
	return h, done, err
}

func (r *recBackend) ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error) {
	done, p, err := r.Backend.ReadAt(at, h, off, n)
	if l := r.read; l != nil && l.at == at && l.h == h && l.off+l.n == off && l.err == nil {
		l.n, l.done, l.err = l.n+n, sim.Max(l.done, done), err
		r.log[len(r.log)-1] = l.String()
	} else {
		r.read = &readRec{at: at, done: done, h: h, off: off, n: n, err: err}
		r.log = append(r.log, r.read.String())
	}
	return done, p, err
}

func (r *recBackend) Delete(at sim.Time, h TableHandle) error {
	err := r.Backend.Delete(at, h)
	r.log, r.read = append(r.log, fmt.Sprintf("delete at=%d h=%d err=%v", at, h, err)), nil
	return err
}

// reset empties the record.
func (r *recBackend) reset() {
	r.log, r.read = nil, nil
	clear(r.blobs)
}

// manualOpts never compacts on its own: the tests below decide when.
func manualOpts(seed int64) Options {
	return Options{MemtableBytes: 1 << 30, L0CompactAt: 1 << 30, BaseLevelBytes: 1 << 40,
		MaxLevels: 3, TableTargetBytes: 2 << 10, Seed: seed}
}

// describe renders the tree: every table's place and shape.
func describe(db *DB) []string {
	var out []string
	for l, lvl := range db.levels {
		for i, t := range lvl {
			out = append(out, fmt.Sprintf("L%d[%d] h=%d level=%d seq=%d size=%d entries=%d indexOff=%d index=%d [%q..%q]",
				l, i, t.handle, t.level, t.seq, t.sizeB, t.entries, t.indexOff, len(t.index), t.firstKey, t.lastKey))
		}
	}
	return out
}

// TestCompactionMatchesPerTableOracle drives twin stores through random
// trees, compacting one with the production (run-chained) merger and the
// other with the parent's one-source-per-table merge, and requires the same
// backend calls at the same virtual times, the same output tables byte for
// byte, and the same levels afterwards. The oracle reads every table with
// one ReadAt; the production merge reads a table of several segments with
// one per segment, which the record coalesces. The tables fit in one
// segment, or (the "segments" layout, with values up to 20 times longer)
// span up to six, more than a read has pieces. In the "long" layout every
// nonempty value is longer than a segment, so each such entry that starts
// before a read's tail piece straddles a cut, and a source takes its spill
// buffers in turn on consecutive entries (with one buffer instead of two,
// the merger's key is overwritten and the run fails). Both stores' slabs
// are in poison mode, so a read of a deleted table's slot fails the run.
func TestCompactionMatchesPerTableOracle(t *testing.T) {
	for _, layout := range []oracleLayout{
		{"", 2 << 10, 1, 0, 120},
		{"segments/", 160 << 10, 20, 0, 120},
		{"long/", 160 << 10, 40, 32 << 10, 8},
	} {
		for _, seed := range []int64{42, 7, 13} {
			for _, backend := range []string{"conv", "zns"} {
				t.Run(fmt.Sprintf("%s%s/seed%d", layout.prefix, backend, seed), func(t *testing.T) {
					compactionMatchesOracle(t, backend, seed, layout)
				})
			}
		}
	}
}

// oracleLayout shapes one TestCompactionMatchesPerTableOracle run: tables
// of about tableTarget bytes; a nonempty value is valueMin bytes plus up to
// 150*valueScale more; each flush takes up to writes puts and deletes.
type oracleLayout struct {
	prefix                                    string
	tableTarget, valueScale, valueMin, writes int
}

// compactionMatchesOracle is one run of TestCompactionMatchesPerTableOracle.
func compactionMatchesOracle(t *testing.T, backend string, seed int64, layout oracleLayout) {
	opts := manualOpts(seed)
	opts.TableTargetBytes = layout.tableTarget
	open := func() (*DB, *recBackend) {
		r := &recBackend{Backend: dbBackends(t)[backend], blobs: map[TableHandle][]byte{}}
		poisonSlab(t, r.Backend)
		return Open(r, opts), r
	}
	got, gotRec := open()
	want, wantRec := open()
	seg := segBytes(got.backend.PageSize())
	var at sim.Time
	// both runs one step on each store; the records and trees
	// are compared whenever tables were written.
	both := func(what string, prod, oracle func(*DB) (sim.Time, error)) {
		t.Helper()
		gotAt, gotErr := prod(got)
		wantAt, wantErr := oracle(want)
		if gotAt != wantAt || gotErr != nil || wantErr != nil {
			t.Fatalf("%s: done %d err %v, oracle %d err %v", what, gotAt, gotErr, wantAt, wantErr)
		}
		at = gotAt
		if len(gotRec.log) == 0 && len(wantRec.log) == 0 {
			return
		}
		if !reflect.DeepEqual(gotRec.log, wantRec.log) {
			t.Fatalf("%s: backend calls differ from the oracle's\n got %q\nwant %q", what, gotRec.log, wantRec.log)
		}
		if !reflect.DeepEqual(gotRec.blobs, wantRec.blobs) {
			t.Fatalf("%s: output tables differ from the oracle's", what)
		}
		if g, w := describe(got), describe(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: tree differs from the oracle's\n got %q\nwant %q", what, g, w)
		}
		gotRec.reset()
		wantRec.reset()
	}
	flush := func(db *DB) (sim.Time, error) { return db.Flush(at) }

	rng := rand.New(rand.NewSource(seed))
	var l0s, deeper int
	for round := 0; round < 60; round++ {
		// One to three overlapping L0 tables of puts, overwrites,
		// empty values and tombstones over a window of the key
		// space; now and then a fresh window that overlaps nothing.
		base := rng.Intn(3) * 300
		if rng.Intn(5) == 0 {
			base = 1000 + round*500
		}
		for f := 1 + rng.Intn(3); f > 0; f-- {
			for n := 1 + rng.Intn(layout.writes); n > 0; n-- {
				k := key(base + rng.Intn(300))
				vlen := rng.Intn(2) * (1 + rng.Intn(150*layout.valueScale))
				if vlen > 0 {
					vlen += layout.valueMin
				}
				v := bytes.Repeat([]byte{byte(round)}, vlen)
				write := func(db *DB) (sim.Time, error) { return db.Put(at, k, v) }
				if rng.Intn(4) == 0 {
					write = func(db *DB) (sim.Time, error) { return db.Delete(at, k) }
				}
				both("write", write, write)
			}
			both("flush", flush, flush)
		}
		if rng.Intn(3) == 0 || len(got.levels[1]) == 0 {
			both("compactL0", func(db *DB) (sim.Time, error) { return db.compactL0(at) },
				func(db *DB) (sim.Time, error) { return db.oracleCompactL0(at) })
			l0s++
		} else { // L1 -> L2, the bottom level: tombstones drop
			both("compactLevel", func(db *DB) (sim.Time, error) { return db.compactLevel(at, 1) },
				func(db *DB) (sim.Time, error) { return db.oracleCompactLevel(at, 1) })
			deeper++
		}
	}
	if l0s < 5 || deeper < 5 || len(got.levels[2]) < 2 {
		t.Fatalf("weak run: %d+%d compactions, %d bottom tables", l0s, deeper, len(got.levels[2]))
	}
	if most := slices.MaxFunc(got.levels[2], func(a, b *tableMeta) int { return a.sizeB - b.sizeB }); layout.valueScale > 1 && most.sizeB <= maxPieces*seg {
		t.Fatalf("weak run: the largest bottom table has %d bytes, within %d segments", most.sizeB, maxPieces)
	}
}

// TestMergeStraddleDoesNotAllocate walks the merge of a run of full tables
// shaped like kv_lsm's (32 KiB target, entries of ~600 B, so a table is two
// segments with an entry across the cut) on both backends. Without spill
// buffers every straddling entry is an allocation, about one a table; with
// them, once they have grown, the walk makes none. Both walks yield every
// key once.
func TestMergeStraddleDoesNotAllocate(t *testing.T) {
	const keys = 2000
	for name, b := range dbBackends(t) {
		opts := manualOpts(1)
		opts.TableTargetBytes, opts.DisableWAL = 32<<10, true
		db := Open(b, opts)
		for k := 0; k < keys; k++ {
			if _, err := db.Put(0, key(k), patterned(590, byte(k))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Flush(0); err != nil {
			t.Fatal(err)
		}
		run := db.levels[0]
		its, srcs := make([]blobIter, len(run)), make([]mergeSource, 0, 1)
		for _, spill := range []*spillBufs{nil, new(spillBufs)} {
			var merged int
			walk := func() {
				for i, tm := range run {
					its[i] = blobIter{spill: spill}
					if _, err := db.readEntries(0, tm, 0, tm.sizeB, &its[i]); err != nil {
						t.Fatal(err)
					}
				}
				m := merger{srcs: srcs[:0]}
				m.add(mergeSource{run: its}, nil)
				for merged = 0; m.next(); merged++ {
				}
			}
			walk() // grows the spill buffers
			allocs := testing.AllocsPerRun(10, walk)
			if spill != nil && allocs != 0 || spill == nil && allocs < float64(len(run)/2) || merged != keys {
				t.Errorf("%s: merging %d tables (spill buffers: %v) made %.1f allocations and %d keys, want %s and %d",
					name, len(run), spill != nil, allocs, merged, map[bool]string{false: "about one a table", true: "0"}[spill != nil], keys)
			}
		}
	}
}

// TestGetStraddleDoesNotAllocate: a Get whose entry straddles a segment
// cut (the last entry of a full table shaped like kv_lsm's) copies it into
// the DB's reused spill buffers, so it allocates only the clone it returns,
// as a Get of an entry inside one segment does. The clone stays the
// caller's: a later Get of another straddling entry leaves it as it was.
func TestGetStraddleDoesNotAllocate(t *testing.T) {
	const keys = 400
	for name, b := range dbBackends(t) {
		opts := manualOpts(1)
		opts.TableTargetBytes, opts.DisableWAL = 32<<10, true
		db := Open(b, opts)
		for k := 0; k < keys; k++ {
			if _, err := db.Put(0, key(k), patterned(590, byte(k))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Flush(0); err != nil {
			t.Fatal(err)
		}
		type entry struct{ key, value []byte }
		var straddling, inside []entry
		for _, tm := range db.levels[0] {
			_, region, err := b.ReadAt(0, tm.handle, 0, tm.indexOff)
			if err != nil {
				t.Fatal(err)
			}
			it := blobIter{data: region}
			for pos := 0; it.next(); {
				end := tm.indexOff - len(it.data)
				e := entry{bytes.Clone(it.key), bytes.Clone(it.value)}
				if pos/db.seg != (end-1)/db.seg {
					straddling = append(straddling, e)
				} else if len(inside) == 0 {
					inside = append(inside, e)
				}
				pos = end
			}
		}
		if len(straddling) < 2 {
			t.Fatalf("%s: %d tables, %d straddling entries", name, len(db.levels[0]), len(straddling))
		}
		for _, e := range append(straddling, inside...) {
			var v []byte
			get := func() { _, v, _, _ = db.Get(0, e.key) }
			get() // grows the spill buffers
			if allocs := testing.AllocsPerRun(20, get); allocs != 1 || !bytes.Equal(v, e.value) {
				t.Errorf("%s: Get(%s) made %.1f allocations, want 1; value right: %v", name, e.key, allocs, bytes.Equal(v, e.value))
			}
		}
		_, first, _, _ := db.Get(0, straddling[0].key)
		for _, e := range straddling[1:] {
			db.Get(0, e.key)
		}
		if !bytes.Equal(first, straddling[0].value) {
			t.Errorf("%s: a later Get changed the value an earlier one returned", name)
		}
	}
}

// randomLevel builds a sorted, disjoint level of n tables (metadata only).
func randomLevel(rng *rand.Rand, n int) []*tableMeta {
	bounds := rng.Perm(4 * (n + 1))[:2*n]
	sort.Ints(bounds)
	lvl := make([]*tableMeta, n)
	for i := range lvl {
		lvl[i] = &tableMeta{firstKey: key(bounds[2*i]), lastKey: key(bounds[2*i+1])}
	}
	return lvl
}

func sameTables(a, b []*tableMeta) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// insertSorted's two-way merge and splitOverlap's binary searches against
// the sort.Slice and the linear scan they replaced, on random disjoint
// levels — empty and single-table ones included.
func TestLevelHelpersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		all := randomLevel(rng, rng.Intn(12))
		var lvl, outs []*tableMeta
		for _, tm := range all { // any split of a sorted level is two sorted lists
			if rng.Intn(2) == 0 {
				lvl = append(lvl, tm)
			} else {
				outs = append(outs, tm)
			}
		}
		want := oracleInsertSorted(append([]*tableMeta(nil), lvl...), outs)
		if got := insertSorted(lvl, outs); !sameTables(got, want) || !sameTables(got, all) {
			t.Fatalf("trial %d: insertSorted = %v, want %v", trial, got, want)
		}

		lo, hi := rng.Intn(4*len(all)+4), rng.Intn(4*len(all)+4)
		if lo > hi {
			lo, hi = hi, lo
		}
		wantOver, wantRest := oracleSplitOverlap(all, key(lo), key(hi))
		gotOver, gotRest := splitOverlap(all, key(lo), key(hi))
		if !sameTables(gotOver, wantOver) || !sameTables(gotRest, wantRest) {
			t.Fatalf("trial %d: splitOverlap(%v, %d, %d) = %v | %v, want %v | %v",
				trial, all, lo, hi, gotOver, gotRest, wantOver, wantRest)
		}
	}
}

// corruptBackend, once armed, returns a copy of what ReadAt read with its
// second half overwritten: a table damaged mid-region on the way to the
// reader. The stored table is untouched — ReadAt may return a window of it,
// which nobody may write to.
type corruptBackend struct {
	Backend
	armed bool
}

func (c *corruptBackend) ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error) {
	done, p, err := c.Backend.ReadAt(at, h, off, n)
	if c.armed {
		p = append([]byte(nil), p...)
		for i := len(p) / 2; i < len(p); i++ {
			p[i] = 0xff
		}
	}
	return done, p, err
}

// A corrupt table must surface as ErrCorrupt from every reader. Scan used
// to drop its iterators' errors and return a silently truncated result.
func TestCorruptTableIsReported(t *testing.T) {
	c := &corruptBackend{Backend: bigZNSBackend(t)}
	db := Open(c, manualOpts(1))
	var at sim.Time
	const n = 200
	for i := 0; i < n; i++ {
		at, _ = db.Put(at, key(i), make([]byte, 64))
	}
	at, err := db.Flush(at)
	if err != nil || len(db.levels[0]) < 2 {
		t.Fatalf("flush: %v, %d tables", err, len(db.levels[0]))
	}

	seen := 0
	if _, err := db.Scan(at, key(0), nil, func(k, v []byte) bool { seen++; return true }); err != nil || seen != n {
		t.Fatalf("intact scan: %d keys, err %v", seen, err)
	}
	c.armed = true
	if _, err := db.Scan(at, key(0), nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scan over a corrupt table: err = %v, want ErrCorrupt", err)
	}
	// The last key of a table lies beyond the damage.
	if _, _, _, err := db.Get(at, key(n-1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get through a corrupt table: err = %v, want ErrCorrupt", err)
	}
	if _, err := db.compactL0(at); !errors.Is(err, ErrCorrupt) {
		t.Errorf("compaction of a corrupt table: err = %v, want ErrCorrupt", err)
	}

	// The damage was the reads', not the tables': disarmed, every reader
	// sees the bytes written.
	c.armed = false
	written := make([]byte, 64)
	seen = 0
	if _, err := db.Scan(at, key(0), nil, func(k, v []byte) bool {
		seen++
		return bytes.Equal(v, written)
	}); err != nil || seen != n {
		t.Fatalf("scan after disarming: %d keys, err %v", seen, err)
	}
	if _, v, found, err := db.Get(at, key(n-1)); err != nil || !found || !bytes.Equal(v, written) {
		t.Fatalf("Get after disarming: %x found=%v err %v", v, found, err)
	}
	if at, err = db.compactL0(at); err != nil || len(db.levels[0]) != 0 || len(db.levels[1]) == 0 {
		t.Fatalf("compaction after disarming: %v, levels %d/%d", err, len(db.levels[0]), len(db.levels[1]))
	}
	for i := 0; i < n; i++ {
		if _, v, found, err := db.Get(at, key(i)); err != nil || !found || !bytes.Equal(v, written) {
			t.Fatalf("Get of %s after the compaction: %x found=%v err %v", key(i), v, found, err)
		}
	}
}

// A table whose bytes decode but whose keys are out of order is corrupt too:
// compacting one returns ErrCorrupt, where the merge used to hand the keys to
// the table builder, which panicked.
func TestCompactionOfUnsortedTableIsCorrupt(t *testing.T) {
	for name, backend := range dbBackends(t) {
		db := Open(backend, manualOpts(1))
		var b tableBuilder
		for i := 0; i < 4; i++ {
			b.add(key(i), value("v"))
		}
		blob, meta := b.finish()
		// Every entry has the same shape, so swapping the keys of entries 1
		// and 2 (where each first occurs) swaps the entries.
		i1, i2 := bytes.Index(blob, key(1)), bytes.Index(blob, key(2))
		copy(blob[i1:], key(2))
		copy(blob[i2:], key(1))
		h, at, err := backend.WriteTable(0, blob, 0)
		if err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		meta.handle, meta.seq = h, 1
		db.levels[0] = append(db.levels[0], meta)
		if _, err := db.compactL0(at); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: compaction of a table with two entries swapped: err = %v, want ErrCorrupt", name, err)
		}
	}
}
