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

// tablePages returns table h's size and a reader of its pages straight
// from the device, page by page of the table.
func tablePages(t *testing.T, b Backend, h TableHandle) (int, func(p int64) (sim.Time, []byte, error)) {
	t.Helper()
	switch b := b.(type) {
	case *ConvBackend:
		tab := b.tables[h]
		return tab.size, func(p int64) (sim.Time, []byte, error) { return b.dev.ReadPage(0, tab.ext.start+p) }
	case *ZNSBackend:
		tab := b.tables[h]
		return tab.size, func(p int64) (sim.Time, []byte, error) { return b.dev.Read(0, b.dev.LBA(tab.Zone, tab.Off+p)) }
	}
	t.Fatalf("no device under %T", b)
	return 0, nil
}

// storedSegments returns the segments the device holds table h in, read
// straight from the device: each is its first page's payload extended to
// its capacity, the array the device keeps. It fails the test unless every
// segment holds exactly its part of the table — segBytes, the last one
// less — with no spare capacity.
func storedSegments(t *testing.T, b Backend, h TableHandle) [][]byte {
	t.Helper()
	size, page := tablePages(t, b, h)
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

// slabOf returns the slab a backend keeps its full segments in.
func slabOf(t *testing.T, b Backend) *slab {
	t.Helper()
	switch b := b.(type) {
	case *ConvBackend:
		return b.slab
	case *ZNSBackend:
		return b.slab
	}
	t.Fatalf("no slab under %T", b)
	return nil
}

// tableSlots returns the slots the backend's record of table h holds.
func tableSlots(b Backend, h TableHandle) [][]byte {
	switch b := b.(type) {
	case *ConvBackend:
		return b.tables[h].slots
	case *ZNSBackend:
		return b.tables[h].slots
	}
	return nil
}

// poisonSlab switches poison mode on in the backend's slab: every slot a
// Delete returns is filled with poisonByte, so any read of it afterwards
// fails to decode or differs from what was written.
func poisonSlab(t *testing.T, b Backend) { slabOf(t, b).poison = true }

// devicePayloads calls fn with every nonempty payload a page read returns
// across every logical page of a conventional device, or every written
// page of every zone of a zoned one.
func devicePayloads(t *testing.T, b Backend, fn func(addr int64, p []byte)) {
	t.Helper()
	var read func(addr int64) (sim.Time, []byte, error)
	var addrs []int64
	switch b := b.(type) {
	case *ConvBackend:
		read = func(lpn int64) (sim.Time, []byte, error) { return b.dev.ReadPage(0, lpn) }
		for lpn := int64(0); lpn < b.dev.CapacityPages(); lpn++ {
			addrs = append(addrs, lpn)
		}
	case *ZNSBackend:
		read = func(lba int64) (sim.Time, []byte, error) { return b.dev.Read(0, lba) }
		for z := 0; z < b.dev.NumZones(); z++ {
			for off := int64(0); off < b.dev.WP(z); off++ {
				addrs = append(addrs, b.dev.LBA(z, off))
			}
		}
	default:
		t.Fatalf("no device under %T", b)
	}
	for _, a := range addrs {
		if _, p, err := read(a); err == nil && len(p) > 0 {
			fn(a, p)
		}
	}
}

// slotRecorder keeps every table's slots and a weak pointer to its heap
// segment (the shorter last one, if it has one), and which handles are
// still live, so a test can ask which segments the backend and the device
// still hold. Slots live outside the Go heap, where weak pointers cannot
// point; the slab's free list and the device's pages are asked instead.
type slotRecorder struct {
	Backend
	t     *testing.T
	slots map[TableHandle][][]byte
	tails map[TableHandle]weak.Pointer[byte]
	live  map[TableHandle]bool
}

func newSlotRecorder(t *testing.T, b Backend) *slotRecorder {
	return &slotRecorder{Backend: b, t: t, slots: map[TableHandle][][]byte{},
		tails: map[TableHandle]weak.Pointer[byte]{}, live: map[TableHandle]bool{}}
}

// track records table h's slots, which must be its full stored segments,
// and its heap tail.
func (r *slotRecorder) track(h TableHandle) {
	segs, slots := storedSegments(r.t, r.Backend, h), tableSlots(r.Backend, h)
	full := len(segs)
	if full > 0 && len(segs[full-1]) < segBytes(r.PageSize()) {
		full--
		r.tails[h] = weak.Make(&segs[full][0])
	}
	if len(slots) != full {
		r.t.Fatalf("table %d: %d slots for %d full segments", h, len(slots), full)
	}
	for i, s := range slots {
		if &s[0] != &segs[i][0] {
			r.t.Errorf("table %d: full segment %d is not the slot its record holds", h, i)
		}
	}
	r.slots[h] = slots
	r.live[h] = true
}

func (r *slotRecorder) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	h, done, err := r.Backend.WriteTable(at, blob, level)
	if err == nil {
		r.track(h)
	}
	return h, done, err
}

func (r *slotRecorder) Delete(at sim.Time, h TableHandle) error {
	err := r.Backend.Delete(at, h)
	if err == nil {
		delete(r.live, h)
	}
	return err
}

// check fails unless every slot any table held is either on the slab's
// free list or held by exactly one live table, never both: a deleted
// table's slots were returned, and those a later table took are that
// table's alone. No page the device returns may lie in a free slot, and
// after a collection exactly the live tables' heap tails survive. It
// returns how many tables were deleted, how many slots they held, and how
// many of those a live table holds again.
func (r *slotRecorder) check(t *testing.T) (deleted, slots, reused int) {
	t.Helper()
	sl := slabOf(t, r.Backend)
	free := map[*byte]bool{} // page starts in free slots
	for _, s := range sl.free {
		if free[&s[0]] {
			t.Errorf("the free list holds a slot twice")
		}
		for p := 0; p < len(s); p += r.PageSize() {
			free[&s[p]] = true
		}
	}
	holders := map[*byte]int{}   // live tables holding each slot
	returned := map[*byte]bool{} // slots a deleted table held
	for h, hs := range r.slots {
		for _, s := range hs {
			if r.live[h] {
				holders[&s[0]]++
			} else {
				holders[&s[0]] += 0
				returned[&s[0]] = true
			}
		}
		if !r.live[h] {
			deleted++
			slots += len(hs)
		}
	}
	for s, n := range holders {
		switch {
		case n > 1:
			t.Errorf("a slot is held by %d live tables", n)
		case n == 1 && free[s]:
			t.Errorf("a live table's slot is on the free list")
		case n == 0 && !free[s]:
			t.Errorf("a deleted table's slot was never returned")
		case n == 1 && returned[s]:
			reused++
		}
	}
	devicePayloads(t, r.Backend, func(addr int64, p []byte) {
		if free[&p[0]] {
			t.Errorf("page %d returns a payload in a returned slot", addr)
		}
	})
	runtime.GC()
	for h, p := range r.tails {
		switch alive := p.Value() != nil; {
		case r.live[h] && !alive:
			t.Errorf("live table %d: its last segment was collected", h)
		case !r.live[h] && alive:
			t.Errorf("deleted table %d still pins its last segment", h)
		}
	}
	return deleted, slots, reused
}

// A deleted table's segments are free: its slots are back on the backend's
// slab, no device page returns a payload inside one, and its heap tail is
// garbage. That holds on a conventional device with or without TRIM (where
// the stale pages stay mapped) and on a zoned device (where they stay in
// the zone until it is reset), including after zone reclamation moved the
// table. The churn's tables span one segment or two, in poison mode; the
// live ones still read back.
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
			rec := newSlotRecorder(t, c.backend(t))
			poisonSlab(t, rec.Backend)
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
			if deleted, slots, reused := rec.check(t); deleted == 0 || reused == 0 {
				t.Fatalf("churn deleted %d tables holding %d slots, %d of them taken again", deleted, slots, reused)
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
			rec := newSlotRecorder(t, zoned)
			rec.track(h)
			rec.check(t)
			if err := rec.Delete(0, h); err != nil {
				t.Fatal(err)
			}
			if _, slots, _ := rec.check(t); slots != c.size/segBytes(c.geom.PageSize) {
				t.Errorf("the table held %d slots, want %d", slots, c.size/segBytes(c.geom.PageSize))
			}
		})
	}
}

// A Delete the device refuses leaves the table live: none of its slots
// goes back to the slab, and it still reads back. (Delete returns the slots
// only after the device has dropped their payloads.) The record is damaged
// so the device rejects the page range of DropPayload, which runs after
// the conventional backend's Trim (a no-op without TRIM) and first on the
// zoned one.
func TestRefusedDeleteKeepsItsSlots(t *testing.T) {
	for name, b := range map[string]Backend{"conv": bigConvBackendTrim(t, false), "zns": bigZNSBackend(t)} {
		blob := patterned(2*segBytes(b.PageSize())+100, 5)
		h := writeTable(t, b, blob)
		damage := func(pages int64) (restore func()) {
			switch b := b.(type) {
			case *ConvBackend:
				tab := b.tables[h]
				old := tab.ext.pages
				tab.ext.pages = pages
				b.tables[h] = tab
				return func() { tab.ext.pages = old; b.tables[h] = tab }
			case *ZNSBackend:
				old := b.tables[h].Pages
				b.tables[h].Pages = pages
				return func() { b.tables[h].Pages = old }
			}
			return nil
		}
		restore := damage(-1)
		if err := b.Delete(0, h); err == nil {
			t.Fatalf("%s: Delete of a damaged record succeeded", name)
		}
		restore()
		if n := len(slabOf(t, b).free); n != 0 {
			t.Errorf("%s: a refused Delete returned %d slots", name, n)
		}
		writeTable(t, b, patterned(len(blob), 6)) // would take returned slots
		if _, got, err := b.ReadAt(0, h, 0, len(blob)); err != nil || !bytes.Equal(got, blob) {
			t.Errorf("%s: the table no longer reads back (%v)", name, err)
		}
	}
}

// storeSegments hands back the slots it took when a page write fails, the
// slot being written included, so the backend can return them.
func TestStoreSegmentsFailureReturnsItsSlots(t *testing.T) {
	conv, _ := spanBackends(t, segGeom)
	seg := segBytes(segGeom.PageSize)
	errFull := fmt.Errorf("device full")
	for _, c := range []struct{ failAt, slots int }{{0, 1}, {8, 2}, {9, 2}, {16, 3}} {
		n := 0
		slots, err := storeSegments(patterned(3*seg+100, 1), segGeom.PageSize, conv.slab, func([]byte) error {
			if n++; n > c.failAt {
				return errFull
			}
			return nil
		})
		if err != errFull || len(slots) != c.slots {
			t.Errorf("failing at page %d: %d slots, %v; want %d", c.failAt, len(slots), err, c.slots)
		}
		conv.slab.put(slots)
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
