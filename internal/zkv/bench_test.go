package zkv

import (
	"fmt"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/workload"
	"blockhead/internal/zns"
)

func BenchmarkMemtablePut(b *testing.B) {
	m := newMemtable(1)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*7919%100000))
	}
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.put(keys[i%len(keys)], val)
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := newMemtable(1)
	for i := 0; i < 10000; i++ {
		m.put([]byte(fmt.Sprintf("key%08d", i)), []byte("v"))
	}
	probe := []byte("key00005000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.get(probe); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableBuilder(b *testing.B) {
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
	}
	val := make([]byte, 100)
	tb := new(tableBuilder)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			tb.add(k, val)
		}
		blob, _ := tb.finish()
		if len(blob) == 0 {
			b.Fatal("empty blob")
		}
	}
}

func benchZNSDB(b *testing.B) *DB {
	b.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 24, PagesPerBlock: 64, PageSize: 4096},
		Lat: flash.LatenciesFor(flash.TLC), ZoneBlocks: 4, StoreData: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := NewZNSBackend(dev, 4)
	if err != nil {
		b.Fatal(err)
	}
	return Open(backend, Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10,
		TableTargetBytes: 32 << 10, Seed: 1})
}

// BenchmarkTableRead reads one whole table back per op through each
// backend, as a compaction does with every input: 32 KiB and a short last
// page on 4 KiB pages, two segments, one ReadAt each.
func BenchmarkTableRead(b *testing.B) {
	geom := flash.Geometry{Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerLUN: 24, PagesPerBlock: 64, PageSize: 4096}
	lat := flash.LatenciesFor(flash.TLC)
	convDev, err := ftl.New(ftl.Config{Geom: geom, Lat: lat, OPFraction: 0.1, StoreData: true})
	if err != nil {
		b.Fatal(err)
	}
	conv, err := NewConvBackend(convDev, 8)
	if err != nil {
		b.Fatal(err)
	}
	blob := patterned(32<<10+100, 1)
	for _, backend := range []Backend{conv, benchZNSDB(b).backend} {
		b.Run(backend.Name(), func(b *testing.B) {
			db := Open(backend, Options{})
			table := &tableMeta{handle: writeTable(b, backend, blob), sizeB: len(blob), indexOff: len(blob)}
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var it blobIter
				if _, err := db.readEntries(0, table, 0, len(blob), &it); err != nil || it.pieces != 1 {
					b.Fatalf("read %d pieces: %v", it.pieces+1, err)
				}
			}
		})
	}
}

// BenchmarkDBPut measures the full LSM write path (WAL + memtable +
// amortized flush/compaction) on the ZNS backend.
func BenchmarkDBPut(b *testing.B) {
	db := benchZNSDB(b)
	keys := workload.NewUniform(workload.NewSource(1), 5000)
	val := make([]byte, 128)
	var at sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = db.Put(at, []byte(fmt.Sprintf("key%08d", keys.Next())), val)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBGet measures point lookups against a populated tree.
func BenchmarkDBGet(b *testing.B) {
	db := benchZNSDB(b)
	var at sim.Time
	for i := 0; i < 5000; i++ {
		at, _ = db.Put(at, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 128))
	}
	keys := workload.NewUniform(workload.NewSource(2), 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, found, err := db.Get(at, []byte(fmt.Sprintf("key%08d", keys.Next())))
		if err != nil || !found {
			b.Fatalf("get: %v found=%v", err, found)
		}
	}
}

// benchTree is a flushed, compacted tree of n keys on the ZNS backend, with
// the keys precomputed so the lookups below measure only the store.
func benchTree(b *testing.B, n int) (*DB, sim.Time, [][]byte) {
	db := benchZNSDB(b)
	keys := make([][]byte, n)
	var at sim.Time
	var err error
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
		if at, err = db.Put(at, keys[i], make([]byte, 128)); err != nil {
			b.Fatal(err)
		}
	}
	if at, err = db.Flush(at); err != nil {
		b.Fatal(err)
	}
	return db, at, keys
}

// BenchmarkGetHit is a point lookup served from tables: range checks, one
// key hash for every filter, one chunk read and walk.
func BenchmarkGetHit(b *testing.B) {
	db, at, keys := benchTree(b, 5000)
	pick := workload.NewUniform(workload.NewSource(2), int64(len(keys)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found, err := db.Get(at, keys[pick.Next()]); err != nil || !found {
			b.Fatalf("get: %v found=%v", err, found)
		}
	}
}

// BenchmarkGetBloomMiss probes absent keys inside the stored key range, so
// only the Bloom filters can turn them away: no device read, no allocation.
func BenchmarkGetBloomMiss(b *testing.B) {
	db, at, keys := benchTree(b, 5000)
	for i := range keys {
		keys[i] = append(keys[i], "-absent"...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found, err := db.Get(at, keys[i%len(keys)]); err != nil || found {
			b.Fatalf("get: %v found=%v", err, found)
		}
	}
}

// BenchmarkCompactLevel is the merge inside a level compaction at the
// default size ratio: one newer table over the ten-table run it overlaps,
// every input read from the device and every output table written to it.
func BenchmarkCompactLevel(b *testing.B) {
	db := benchZNSDB(b)
	val := make([]byte, 128)
	var at sim.Time
	table := func(level, from, to, step int) *tableMeta {
		for i := from; i < to; i += step {
			db.tb.add([]byte(fmt.Sprintf("key%08d", i)), val)
		}
		blob, meta := db.tb.finish()
		h, done, err := db.backend.WriteTable(at, blob, level)
		if err != nil {
			b.Fatal(err)
		}
		at, meta.handle = done, h
		return meta
	}
	const perTable, tables = 200, 10
	var overlap []*tableMeta
	for t := 0; t < tables; t++ {
		overlap = append(overlap, table(2, t*perTable, (t+1)*perTable, 1))
	}
	runs := [][]*tableMeta{{table(1, 0, tables*perTable, tables)}, overlap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, done, err := db.merge(at, runs, 2)
		if err != nil || len(outs) == 0 {
			b.Fatalf("merge: %v, %d tables", err, len(outs))
		}
		if err := db.dropTables(done, outs); err != nil {
			b.Fatal(err)
		}
		at = done
	}
}
