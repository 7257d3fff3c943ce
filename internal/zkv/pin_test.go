package zkv

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"blockhead/internal/flash"
	"blockhead/internal/sim"
)

// storedSegments returns the segments the device holds table h in, read
// straight from the device: each is its first page's payload extended to
// its capacity, the array the device keeps. It fails the test unless every
// segment holds exactly its part of the table — segBytes, the last one
// less — with no spare capacity.
func storedSegments(t *testing.T, b Backend, h TableHandle) [][]byte {
	t.Helper()
	var size int
	var page func(p int64) (sim.Time, []byte, error)
	switch b := b.(type) {
	case *ConvBackend:
		tab := b.tables[h]
		size = tab.size
		page = func(p int64) (sim.Time, []byte, error) { return b.dev.ReadPage(0, tab.ext.start+p) }
	case *ZNSBackend:
		tab := b.tables[h]
		size = tab.size
		page = func(p int64) (sim.Time, []byte, error) { return b.dev.Read(0, b.dev.LBA(tab.Zone, tab.Off+p)) }
	default:
		t.Fatalf("no device under %T", b)
	}
	ps := b.PageSize()
	seg := segBytes(ps)
	var segs [][]byte
	for lo := 0; lo < size; lo += seg {
		_, p, err := page(int64(lo / ps))
		if err != nil || len(p) == 0 {
			t.Fatalf("table %d: segment at byte %d: payload of %d bytes, %v", h, lo, len(p), err)
		}
		if want := min(seg, size-lo); cap(p) != want {
			t.Errorf("table %d: segment at byte %d has capacity %d, want %d", h, lo, cap(p), want)
		}
		segs = append(segs, p[:cap(p)])
	}
	return segs
}

// pinRecorder keeps a weak pointer to the first byte of every segment a
// table is stored in, and which handles are still live, so a test can ask
// the garbage collector which segments the device still holds.
type pinRecorder struct {
	Backend
	t    *testing.T
	segs map[TableHandle][]weak.Pointer[byte]
	live map[TableHandle]bool
}

func newPinRecorder(t *testing.T, b Backend) *pinRecorder {
	return &pinRecorder{Backend: b, t: t, segs: map[TableHandle][]weak.Pointer[byte]{}, live: map[TableHandle]bool{}}
}

func (r *pinRecorder) track(h TableHandle) {
	r.segs[h] = nil
	for _, s := range storedSegments(r.t, r.Backend, h) {
		r.segs[h] = append(r.segs[h], weak.Make(&s[0]))
	}
	r.live[h] = true
}

func (r *pinRecorder) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	h, done, err := r.Backend.WriteTable(at, blob, level)
	if err == nil {
		r.track(h)
	}
	return h, done, err
}

func (r *pinRecorder) Delete(at sim.Time, h TableHandle) error {
	err := r.Backend.Delete(at, h)
	if err == nil {
		delete(r.live, h)
	}
	return err
}

// check collects garbage and fails unless exactly the live tables'
// segments survive; it returns how many tables were deleted.
func (r *pinRecorder) check(t *testing.T) (deleted int) {
	t.Helper()
	runtime.GC()
	for h, segs := range r.segs {
		for i, p := range segs {
			switch alive := p.Value() != nil; {
			case r.live[h] && !alive:
				t.Errorf("live table %d: its segment %d was collected", h, i)
			case !r.live[h] && alive:
				t.Errorf("deleted table %d still pins its segment %d", h, i)
			}
		}
		if !r.live[h] {
			deleted++
		}
	}
	return deleted
}

// A deleted table's segments are garbage: no device payload slot keeps
// them, on a conventional device with or without TRIM (where the stale
// pages stay mapped) and on a zoned device (where they stay in the zone
// until it is reset), including after zone reclamation moved the table.
// The churn's tables span one segment or two.
func TestDeletedTableIsUnpinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend func(*testing.T) Backend
	}{
		{"conv without TRIM", func(t *testing.T) Backend { return bigConvBackendTrim(t, false) }},
		{"conv with TRIM", func(t *testing.T) Backend { return bigConvBackendTrim(t, true) }},
		{"zns", func(t *testing.T) Backend { return bigZNSBackend(t) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := newPinRecorder(t, c.backend(t))
			opts := testOpts()
			opts.TableTargetBytes = 40 << 10 // compaction output spans two segments
			db := Open(rec, opts)
			rng := rand.New(rand.NewSource(7))
			latest := map[int]string{}
			var at sim.Time
			for i := 0; i < 5000; i++ {
				k, v := rng.Intn(1500), fmt.Sprintf("value-%d-%056d", i, i)
				var err error
				if at, err = db.Put(at, key(k), []byte(v)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				latest[k] = v
			}
			if db.Stats().Compactions == 0 {
				t.Fatal("churn ran no compaction")
			}
			if deleted := rec.check(t); deleted == 0 {
				t.Fatal("churn deleted no table")
			}
			most := 0
			for _, segs := range rec.segs {
				most = max(most, len(segs))
			}
			if most < 2 {
				t.Fatal("churn wrote no table of two segments")
			}
			for k := 0; k < 1500; k += 37 { // the live tables still read back
				if _, v, found, err := db.Get(at, key(k)); err != nil || found != (latest[k] != "") || string(v) != latest[k] {
					t.Fatalf("get %d = %q %v %v, want %q", k, v, found, err, latest[k])
				}
			}
		})
	}

	for _, c := range []struct {
		name string
		geom flash.Geometry
		size int
	}{
		{"zns, relocated before deletion", spanGeom, 200},
		{"zns, relocated before deletion, four segments", segGeom, 3*segBytes(segGeom.PageSize) + 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			zoned, h := relocatedTable(t, c.geom, patterned(c.size, 9))
			rec := newPinRecorder(t, zoned)
			rec.track(h)
			rec.check(t)
			if err := rec.Delete(0, h); err != nil {
				t.Fatal(err)
			}
			rec.check(t)
		})
	}
}

// The devices keep exact-size segments of a table, never the blob
// WriteTable was given: tables of one page, of several, of one segment
// and a bit, and of more segments than a read has pieces are each stored
// in segments of segBytes (the last one shorter) with no spare capacity,
// and writing into the caller's blob afterwards changes nothing ReadAt
// returns.
func TestTableBlobHasNoSlack(t *testing.T) {
	for name, b := range dbBackends(t) {
		tb := new(tableBuilder)
		for _, n := range []int{1, 2, 50, 700, 2500} {
			for i := 0; i < n; i++ {
				tb.add(key(i), make([]byte, i%90))
			}
			blob, _ := tb.finish()
			written := bytes.Clone(blob)
			h, _, err := b.WriteTable(0, blob, 0)
			if err != nil {
				t.Fatalf("%s, %d entries: %v", name, n, err)
			}
			if segs := storedSegments(t, b, h); len(segs) != (len(blob)+segBytes(b.PageSize())-1)/segBytes(b.PageSize()) {
				t.Errorf("%s, %d entries: %d B in %d segments", name, n, len(blob), len(segs))
			}
			for i := range blob {
				blob[i] = 0xa5
			}
			if _, got, err := b.ReadAt(0, h, 0, len(written)); err != nil || !bytes.Equal(got, written) {
				t.Errorf("%s, %d entries: the stored table changed with the caller's blob (%v)", name, n, err)
			}
		}
	}
}
