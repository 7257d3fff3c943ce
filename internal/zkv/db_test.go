package zkv

import (
	"fmt"
	"math/rand"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

// bigConvBackend / bigZNSBackend give the DB a few MB to work with.
func bigConvBackend(t *testing.T) *ConvBackend { return bigConvBackendTrim(t, true) }

// bigConvBackendTrim is bigConvBackend on a device with or without TRIM.
func bigConvBackendTrim(t *testing.T, trim bool) *ConvBackend {
	t.Helper()
	dev, err := ftl.New(ftl.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 24, PagesPerBlock: 64, PageSize: 4096},
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.15,
		HotColdSeparation: true,
		TrimSupported:     trim,
		StoreData:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConvBackend(dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bigZNSBackend(t *testing.T) *ZNSBackend {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 24, PagesPerBlock: 64, PageSize: 4096},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 8, // 24 zones x 512 pages x 4K = 2 MiB zones
		StoreData:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewZNSBackend(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testOpts() Options {
	return Options{
		MemtableBytes:    32 << 10,
		BaseLevelBytes:   128 << 10,
		TableTargetBytes: 16 << 10,
		Seed:             1,
	}
}

func dbBackends(t *testing.T) map[string]Backend {
	return map[string]Backend{"conv": bigConvBackend(t), "zns": bigZNSBackend(t)}
}

func key(i int) []byte      { return []byte(fmt.Sprintf("key%08d", i)) }
func value(s string) []byte { return []byte(s) }

func TestPutGetSimple(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		at, err := db.Put(0, key(1), value("one"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, v, found, err := db.Get(at, key(1))
		if err != nil || !found || string(v) != "one" {
			t.Fatalf("%s: get = %q %v %v", name, v, found, err)
		}
		_, _, found, _ = db.Get(at, key(2))
		if found {
			t.Errorf("%s: phantom key", name)
		}
	}
}

func TestGetFromTables(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		var at sim.Time
		for i := 0; i < 2000; i++ {
			var err error
			at, err = db.Put(at, key(i), value(fmt.Sprintf("v%d", i)))
			if err != nil {
				t.Fatalf("%s: put %d: %v", name, i, err)
			}
		}
		if db.Stats().Flushes == 0 {
			t.Fatalf("%s: no flush happened; keys all in memtable", name)
		}
		// Spot-check across the whole range (most now live in SSTables).
		for i := 0; i < 2000; i += 97 {
			done, v, found, err := db.Get(at, key(i))
			if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s: get %d = %q %v %v", name, i, v, found, err)
			}
			if done < at {
				t.Fatalf("%s: time went backward", name)
			}
		}
	}
}

// Get and Scan hand out values the caller owns: table reads alias the
// stored blobs, so writing into a value from a memtable hit, a table hit or
// a scan must leave what the next read returns unchanged.
func TestGetValueIsCallerOwned(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		var at sim.Time
		var err error
		want := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
		for i := 0; i < 10; i++ {
			if at, err = db.Put(at, key(i), want(i)); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = db.Flush(at); err != nil || len(db.levels[0]) == 0 {
			t.Fatalf("%s: flush: %v", name, err)
		}
		if at, err = db.Put(at, key(10), want(10)); err != nil { // stays in the memtable
			t.Fatal(err)
		}
		scribble := func(v []byte) {
			for i := range v {
				v[i] = 'X'
			}
		}
		check := func(what string) {
			t.Helper()
			for _, i := range []int{3, 10} {
				if _, v, found, err := db.Get(at, key(i)); err != nil || !found || string(v) != string(want(i)) {
					t.Fatalf("%s: after %s, Get(%s) = %q found=%v err %v; want %q", name, what, key(i), v, found, err, want(i))
				}
			}
			n := 0
			if _, err := db.Scan(at, key(0), nil, func(k, v []byte) bool {
				if string(v) != string(want(n)) {
					t.Fatalf("%s: after %s, Scan read %q at %s; want %q", name, what, v, k, want(n))
				}
				n++
				return true
			}); err != nil || n != 11 {
				t.Fatalf("%s: after %s, Scan read %d keys, err %v", name, what, n, err)
			}
		}
		for _, i := range []int{10, 3} { // a memtable hit, then a table hit
			_, v, _, _ := db.Get(at, key(i))
			scribble(v)
			check(fmt.Sprintf("writing into Get(%s)", key(i)))
		}
		db.Scan(at, key(0), nil, func(k, v []byte) bool { scribble(v); return true })
		check("writing into every value Scan read")
	}
}

func TestOverwriteAndTombstone(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		var at sim.Time
		// Write, flush, overwrite, flush, delete, flush: the final state
		// must win through all levels.
		at, _ = db.Put(at, key(5), value("v1"))
		at, _ = db.Flush(at)
		at, _ = db.Put(at, key(5), value("v2"))
		at, _ = db.Flush(at)
		_, v, found, _ := db.Get(at, key(5))
		if !found || string(v) != "v2" {
			t.Fatalf("%s: overwrite lost: %q %v", name, v, found)
		}
		at, _ = db.Delete(at, key(5))
		at, _ = db.Flush(at)
		_, _, found, _ = db.Get(at, key(5))
		if found {
			t.Fatalf("%s: tombstone did not shadow older versions", name)
		}
	}
}

func TestEmptyValue(t *testing.T) {
	db := Open(bigZNSBackend(t), testOpts())
	at, _ := db.Put(0, key(9), []byte{})
	at, _ = db.Flush(at)
	_, v, found, err := db.Get(at, key(9))
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, found, err)
	}
}

func TestCompactionTriggersAndLevels(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		rng := rand.New(rand.NewSource(2))
		var at sim.Time
		for i := 0; i < 6000; i++ {
			var err error
			at, err = db.Put(at, key(rng.Intn(3000)), value(fmt.Sprintf("val-%d", i)))
			if err != nil {
				t.Fatalf("%s: put %d: %v", name, i, err)
			}
		}
		st := db.Stats()
		if st.Compactions == 0 {
			t.Fatalf("%s: no compaction in 6000 puts", name)
		}
		if st.AppWriteAmp() <= 1 {
			t.Errorf("%s: app WA = %v, want > 1 with compactions", name, st.AppWriteAmp())
		}
		// Levels 1+ must be sorted and disjoint.
		for l := 1; l < len(db.levels); l++ {
			lvl := db.levels[l]
			for i := 1; i < len(lvl); i++ {
				if string(lvl[i].firstKey) <= string(lvl[i-1].lastKey) {
					t.Fatalf("%s: L%d tables overlap: %v then %v", name, l, lvl[i-1], lvl[i])
				}
			}
		}
	}
}

// Model check: the DB must agree with a map under heavy random
// put/delete/get traffic, across flushes and compactions, on both backends.
func TestModelCheck(t *testing.T) {
	for name, b := range dbBackends(t) {
		db := Open(b, testOpts())
		model := map[string]string{}
		rng := rand.New(rand.NewSource(3))
		var at sim.Time
		for i := 0; i < 8000; i++ {
			k := key(rng.Intn(1500))
			switch rng.Intn(10) {
			case 0: // delete
				var err error
				at, err = db.Delete(at, k)
				if err != nil {
					t.Fatalf("%s: delete: %v", name, err)
				}
				delete(model, string(k))
			default:
				v := fmt.Sprintf("v-%d", i)
				var err error
				at, err = db.Put(at, k, value(v))
				if err != nil {
					t.Fatalf("%s: put: %v", name, err)
				}
				model[string(k)] = v
			}
		}
		// Verify every key and a sample of absent keys.
		for k, v := range model {
			_, got, found, err := db.Get(at, []byte(k))
			if err != nil {
				t.Fatalf("%s: get %q: %v", name, k, err)
			}
			if !found || string(got) != v {
				t.Fatalf("%s: get %q = %q,%v want %q", name, k, got, found, v)
			}
		}
		for i := 0; i < 1500; i++ {
			k := key(i)
			if _, ok := model[string(k)]; ok {
				continue
			}
			_, _, found, err := db.Get(at, k)
			if err != nil {
				t.Fatalf("%s: get absent: %v", name, err)
			}
			if found {
				t.Fatalf("%s: deleted key %q resurrected", name, k)
			}
		}
		t.Logf("%s: stats %+v deviceWA=%.2f", name, db.Stats(), b.Counters().WriteAmp())
	}
}

// The headline E5 mechanism at test scale: under identical LSM traffic on a
// mostly-full device, the ZNS backend's device-level WA must sit well below
// the conventional one's. (Write amplification only bites at high space
// utilization: a near-empty FTL collects only dead blocks for free.)
func TestDeviceWAConvVsZNS(t *testing.T) {
	// Few LUNs keep the FTL's fixed reserve floor small, so the spare space
	// is realistic (~13%) and utilization is high enough for GC to hurt.
	geom := flash.Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerLUN: 112, PagesPerBlock: 64, PageSize: 1024}
	opts := Options{MemtableBytes: 64 << 10, BaseLevelBytes: 256 << 10,
		TableTargetBytes: 32 << 10, Seed: 1}
	const keys = 13000 // ~7.8 MB live at ~600 B/entry: with level duplicates
	// and transients the logical space runs essentially full — the regime
	// where the paper's RocksDB numbers were measured
	run := func(b Backend) float64 {
		db := Open(b, opts)
		rng := rand.New(rand.NewSource(4))
		var at sim.Time
		put := func(k int) {
			var err error
			at, err = db.Put(at, key(k), make([]byte, 580))
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < keys; i++ { // fill
			put(i)
		}
		for i := 0; i < keys; i++ { // churn
			put(rng.Intn(keys))
		}
		return b.Counters().WriteAmp()
	}

	// Trim-less deployment (the common production default at the block
	// layer) with filesystem-style scattered allocation: the configuration
	// the paper's conventional-SSD RocksDB numbers come from.
	convDev, err := ftl.New(ftl.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC),
		OPFraction: 0.03, HotColdSeparation: true, TrimSupported: false, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewConvBackend(convDev, 64)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetAllocPolicy(ScatterFit)
	znsDev, err := zns.New(zns.Config{Geom: geom, Lat: flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 2, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	zb, err := NewZNSBackend(znsDev, 4)
	if err != nil {
		t.Fatal(err)
	}

	conv := run(cb)
	z := run(zb)
	t.Logf("device WA: conv=%.2f zns=%.2f", conv, z)
	if z >= conv {
		t.Errorf("device WA: zns=%.2f must be below conv=%.2f", z, conv)
	}
	if z > 1.3 {
		t.Errorf("zns device WA = %.2f, want near 1 (paper: 1.2x)", z)
	}
	if conv < 1.5 {
		t.Errorf("conv device WA = %.2f, too low: the device never felt GC pressure", conv)
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	db := Open(bigZNSBackend(t), testOpts())
	at, err := db.Flush(100)
	if err != nil || at != 100 {
		t.Errorf("empty flush: at=%d err=%v", at, err)
	}
}

func TestDisableWAL(t *testing.T) {
	b := bigZNSBackend(t)
	opts := testOpts()
	opts.DisableWAL = true
	db := Open(b, opts)
	var at sim.Time
	for i := 0; i < 500; i++ {
		at, _ = db.Put(at, key(i), value("x"))
	}
	at, _ = db.Flush(at)
	// All device writes must be table writes; no WAL pages.
	if b.za.Open[b.streams] != -1 {
		t.Error("WAL zone allocated despite DisableWAL")
	}
	_, _, found, _ := db.Get(at, key(100))
	if !found {
		t.Error("data lost without WAL")
	}
}

func TestStatsAccounting(t *testing.T) {
	db := Open(bigZNSBackend(t), testOpts())
	var at sim.Time
	for i := 0; i < 3000; i++ {
		at, _ = db.Put(at, key(i), make([]byte, 32))
	}
	st := db.Stats()
	if st.Puts != 3000 {
		t.Errorf("Puts = %d", st.Puts)
	}
	if st.TablesNow == 0 || st.Flushes == 0 || st.FlushedBytes == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	db.Get(at, key(1))
	if db.Stats().Gets != 1 {
		t.Errorf("Gets = %d", db.Stats().Gets)
	}
}
