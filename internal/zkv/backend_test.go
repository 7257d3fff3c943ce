package zkv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"blockhead/internal/flash"
	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/zns"
)

func convBackend(t *testing.T) *ConvBackend {
	t.Helper()
	dev, err := ftl.New(ftl.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 512},
		Lat:               flash.LatenciesFor(flash.TLC),
		OPFraction:        0.1,
		HotColdSeparation: true,
		TrimSupported:     true,
		StoreData:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConvBackend(dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func znsBackend(t *testing.T) *ZNSBackend {
	t.Helper()
	dev, err := zns.New(zns.Config{
		Geom: flash.Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 512},
		Lat:        flash.LatenciesFor(flash.TLC),
		ZoneBlocks: 4, // 32 zones x 64 pages x 512B = 32 KiB zones
		StoreData:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewZNSBackend(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func backends(t *testing.T) map[string]Backend {
	return map[string]Backend{"conv": convBackend(t), "zns": znsBackend(t)}
}

func TestBackendTableRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		blob := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B, >3 pages
		h, done, err := b.WriteTable(0, blob, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if done <= 0 {
			t.Errorf("%s: write took no time", name)
		}
		// Full read.
		_, got, err := b.ReadAt(done, h, 0, len(blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, blob) {
			t.Errorf("%s: full round trip failed", name)
		}
		// Unaligned sub-range.
		_, got, err = b.ReadAt(done, h, 513, 700)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, blob[513:1213]) {
			t.Errorf("%s: sub-range read wrong", name)
		}
		// Span errors.
		if _, _, err = b.ReadAt(done, h, 0, len(blob)+1); !errors.Is(err, ErrBadReadSpan) {
			t.Errorf("%s: over-read: %v", name, err)
		}
		if _, _, err = b.ReadAt(done, TableHandle(999), 0, 1); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%s: bad handle: %v", name, err)
		}
		// Delete, then the handle is gone.
		if err := b.Delete(done, h); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if err := b.Delete(done, h); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%s: double delete: %v", name, err)
		}
	}
}

func TestBackendWAL(t *testing.T) {
	for name, b := range backends(t) {
		var at sim.Time
		before := b.Counters().HostWritePages
		for i := 0; i < 20; i++ {
			var err error
			at, err = b.AppendWAL(at, 100)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if b.Counters().HostWritePages == before {
			t.Errorf("%s: WAL wrote no pages", name)
		}
		if err := b.ResetWAL(at); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		// WAL continues after reset.
		if _, err := b.AppendWAL(at, 100); err != nil {
			t.Fatalf("%s: append after reset: %v", name, err)
		}
		// Zero-byte appends are free.
		c := b.Counters().HostWritePages
		b.AppendWAL(at, 0)
		if b.Counters().HostWritePages != c {
			t.Errorf("%s: empty append wrote pages", name)
		}
	}
}

func TestConvExtentReuse(t *testing.T) {
	b := convBackend(t)
	blob := make([]byte, 4*512)
	var hs []TableHandle
	var at sim.Time
	// Fill most of the data area, delete everything, fill again: the
	// allocator must reuse freed extents.
	cap := b.dev.CapacityPages() - b.walPages
	n := int(cap / 4)
	for i := 0; i < n; i++ {
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("fill %d/%d: %v", i, n, err)
		}
		at = done
		hs = append(hs, h)
	}
	if _, _, err := b.WriteTable(at, blob, 0); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overfull write: %v", err)
	}
	for _, h := range hs {
		if err := b.Delete(at, h); err != nil {
			t.Fatal(err)
		}
	}
	// Free list must have coalesced back to one extent.
	if len(b.free) != 1 || b.free[0].pages != cap {
		t.Errorf("free list after full delete: %+v (cap %d)", b.free, cap)
	}
	for i := 0; i < n; i++ {
		var err error
		_, at, err = b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("refill %d: %v", i, err)
		}
	}
}

// zoneOf reports the zone holding table h.
func (b *ZNSBackend) zoneOf(h TableHandle) int { return b.tables[h].Zone }

func TestZNSLevelSeparation(t *testing.T) {
	b := znsBackend(t)
	blob := make([]byte, 2*512)
	h0, _, err := b.WriteTable(0, blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := b.WriteTable(0, blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.zoneOf(h0) == b.zoneOf(h2) {
		t.Error("different levels share a zone")
	}
	// Levels beyond the stream count share the last stream's zone.
	h5, _, err := b.WriteTable(0, blob, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.zoneOf(h5) != b.zoneOf(h2) {
		t.Error("deep level did not fold into the last stream")
	}
}

func TestZNSDeadZoneResetWithoutCopy(t *testing.T) {
	b := znsBackend(t)
	// Fill one zone with tables, seal it by rolling, delete all: the zone
	// must come back without any simple copy.
	blob := make([]byte, 16*512) // 16 pages; zone = 64 pages
	var hs []TableHandle
	var at sim.Time
	for i := 0; i < 8; i++ { // spills into a second zone, sealing the first
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		hs = append(hs, h)
	}
	for _, h := range hs[:4] { // all tables of the first (sealed) zone
		if err := b.Delete(at, h); err != nil {
			t.Fatal(err)
		}
	}
	if b.Counters().GCCopyPages != 0 {
		t.Errorf("reclaiming a dead zone copied %d pages; want 0", b.Counters().GCCopyPages)
	}
	if b.Device().Resets() == 0 {
		t.Error("dead zone was not reset")
	}
}

func TestZNSReclaimRelocatesSurvivors(t *testing.T) {
	b := znsBackend(t)
	blob := make([]byte, 8*512)
	var at sim.Time
	var live []TableHandle
	del := func(i int) {
		// Pseudo-random victim so survivors scatter across zones and
		// reclamation cannot always find a fully-dead zone.
		j := (i * 13) % len(live)
		victim := live[j]
		live = append(live[:j], live[j+1:]...)
		if err := b.Delete(at, victim); err != nil {
			t.Fatal(err)
		}
	}
	// Churn tables, deleting ~7/8 of them; the slowly-growing survivor set
	// fragments across zones until the free pool dries up and reclamation
	// must relocate.
	for i := 0; i < 1200; i++ {
		h, done, err := b.WriteTable(at, blob, 0)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
		live = append(live, h)
		if i%8 != 0 && len(live) > 1 {
			del(i)
		}
		for len(live) > 140 {
			del(i + 7)
		}
	}
	// Survivors must still read back.
	for _, h := range live {
		if _, _, err := b.ReadAt(at, h, 0, 8*512); err != nil {
			t.Fatalf("survivor read: %v", err)
		}
	}
	if b.RelocatedPages() == 0 {
		t.Error("expected some relocation under this churn")
	}
}

func TestBackendNames(t *testing.T) {
	if convBackend(t).Name() != "conventional" || znsBackend(t).Name() != "zns" {
		t.Error("backend names wrong")
	}
}

// checkEverySpan reads every (off, n) of a stored table and compares it
// with the blob that was written.
func checkEverySpan(t *testing.T, what string, b Backend, h TableHandle, blob []byte) {
	t.Helper()
	for off := 0; off <= len(blob); off++ {
		for n := 0; off+n <= len(blob); n++ {
			_, got, err := b.ReadAt(0, h, off, n)
			if err != nil || !bytes.Equal(got, blob[off:off+n]) {
				t.Fatalf("%s: ReadAt(%d, %d) = %x, %v; want %x", what, off, n, got, err, blob[off:off+n])
			}
		}
	}
	if _, _, err := b.ReadAt(0, h, 1, len(blob)); !errors.Is(err, ErrBadReadSpan) {
		t.Fatalf("%s: read past the table: %v", what, err)
	}
}

func patterned(n int, salt byte) []byte {
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = byte(i)*7 + salt
	}
	return blob
}

// spanGeom is the small geometry the span tests store tables on: 32-byte
// pages, so a table of a few hundred bytes spans pages and ends short.
var spanGeom = flash.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
	BlocksPerLUN: 64, PagesPerBlock: 8, PageSize: 32}

// segGeom stores tables of several segments: 4 KiB pages, eight to a
// segment, and zones of 64 pages on the zoned device.
var segGeom = flash.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
	BlocksPerLUN: 32, PagesPerBlock: 32, PageSize: 4096}

func writeTable(t testing.TB, b Backend, blob []byte) TableHandle {
	t.Helper()
	h, _, err := b.WriteTable(0, blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// spanBackends are a conventional and a zoned backend on geom.
func spanBackends(t testing.TB, geom flash.Geometry) (*ConvBackend, *ZNSBackend) {
	t.Helper()
	lat := flash.LatenciesFor(flash.TLC)
	convDev, err := ftl.New(ftl.Config{Geom: geom, Lat: lat, OPFraction: 0.25, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConvBackend(convDev, 2)
	if err != nil {
		t.Fatal(err)
	}
	znsDev, err := zns.New(zns.Config{Geom: geom, Lat: lat, ZoneBlocks: 2, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := NewZNSBackend(znsDev, 1)
	if err != nil {
		t.Fatal(err)
	}
	return conv, zoned
}

// relocatedTable stores blob as a table on a fresh zoned backend on geom
// and has zone reclamation move it by simple copy, short last page and all:
// a dead neighbour makes its zone the only victim once a table that does
// not fit seals it, and with the pool drained to its low water, reclamation
// moves the live table into the relocation zone.
func relocatedTable(t testing.TB, geom flash.Geometry, blob []byte) (*ZNSBackend, TableHandle) {
	t.Helper()
	_, zoned := spanBackends(t, geom)
	dead := writeTable(t, zoned, patterned(70, 2))
	live := writeTable(t, zoned, blob)
	if err := zoned.Delete(0, dead); err != nil {
		t.Fatal(err)
	}
	from := zoned.zoneOf(live)
	writeTable(t, zoned, patterned(int(zoned.dev.ZonePages())*geom.PageSize, 6))
	for zoned.za.Free.Len() > 2 {
		zoned.za.Free.Take(zoned.dev)
	}
	zoned.za.Reclaim(0)
	if zoned.zoneOf(live) == from || zoned.RelocatedPages() == 0 {
		t.Fatal("table was not relocated")
	}
	return zoned, live
}

// ReadAt returns exactly the bytes written, for every span, when the
// table's last page is short (its stored payload is shorter than a page),
// when it is not, after zone reclamation moved the table by simple copy,
// and when its extent was used before by a longer table whose stale
// payloads the trim-less device still holds. On tables of several segments
// it does for every span that starts or ends near a cut, inside one segment
// or across one or more of them.
func TestReadAtEverySpan(t *testing.T) {
	conv, zoned := spanBackends(t, spanGeom)
	for _, size := range []int{1, 31, 32, 33, 150, 160} {
		for name, b := range map[string]Backend{"conv": conv, "zns": zoned} {
			blob := patterned(size, 1)
			checkEverySpan(t, fmt.Sprintf("%s/%dB", name, size), b, writeTable(t, b, blob), blob)
		}
	}

	blob := patterned(150, 3)
	relocated, live := relocatedTable(t, spanGeom, blob)
	checkEverySpan(t, "zns/relocated", relocated, live, blob)

	// Conventional: first-fit hands a freed extent to the next table.
	old := writeTable(t, conv, patterned(200, 4))
	start := conv.tables[old].ext.start
	if err := conv.Delete(0, old); err != nil {
		t.Fatal(err)
	}
	blob = patterned(150, 5)
	reused := writeTable(t, conv, blob)
	if conv.tables[reused].ext.start != start {
		t.Fatal("extent was not reused")
	}
	checkEverySpan(t, "conv/reused extent", conv, reused, blob)

	seg := segBytes(segGeom.PageSize)
	blob = patterned(4*seg+100, 7)
	var near []int // offsets within 2 bytes of a cut or an end
	for c := 0; c <= len(blob); c += seg {
		for o := max(0, c-2); o <= min(len(blob), c+2); o++ {
			near = append(near, o)
		}
	}
	near = append(near, len(blob)-2, len(blob)-1, len(blob))
	conv, zoned = spanBackends(t, segGeom)
	relocated, live = relocatedTable(t, segGeom, blob)
	for _, c := range []struct {
		name string
		b    Backend
		h    TableHandle
	}{
		{"conv/segments", conv, writeTable(t, conv, blob)},
		{"zns/segments", zoned, writeTable(t, zoned, blob)},
		{"zns/segments relocated", relocated, live},
	} {
		for _, lo := range near {
			for _, hi := range near {
				if _, got, err := c.b.ReadAt(0, c.h, lo, hi-lo); lo <= hi && (err != nil || !bytes.Equal(got, blob[lo:hi])) {
					t.Fatalf("%s: ReadAt(%d, %d): %v, bytes right: %v", c.name, lo, hi-lo, err, bytes.Equal(got, blob[lo:hi]))
				}
			}
		}
	}
}

// joined is the entry region an iterator would walk, its pieces joined.
func joined(it blobIter) []byte {
	out := bytes.Clone(it.data)
	for _, p := range it.later[:it.pieces] {
		out = append(out, p...)
	}
	return out
}

// The pages of a stored table hold sub-slices of its segments, so ReadAt
// hands back a window of one: a whole-table and a mid-table read of a
// one-segment table allocate nothing on either backend, nor after zone
// reclamation moved the table. A table of several segments is read as one
// ReadAt per segment (DB.readEntries): a whole-table read and a mid-table
// span across a cut allocate nothing either, in the same three places.
func TestReadAtDoesNotAllocate(t *testing.T) {
	blob := patterned(150, 1)
	conv, zoned := spanBackends(t, spanGeom)
	relocated, live := relocatedTable(t, spanGeom, blob)
	for _, c := range []struct {
		name string
		b    Backend
		h    TableHandle
	}{
		{"conv", conv, writeTable(t, conv, blob)},
		{"zns", zoned, writeTable(t, zoned, blob)},
		{"zns/relocated", relocated, live},
	} {
		for _, span := range [][2]int{{0, len(blob)}, {45, 70}} {
			var got []byte
			allocs := testing.AllocsPerRun(20, func() {
				_, got, _ = c.b.ReadAt(0, c.h, span[0], span[1])
			})
			if ok := bytes.Equal(got, blob[span[0]:span[0]+span[1]]); allocs != 0 || !ok {
				t.Errorf("%s: ReadAt(%d, %d) made %.1f allocations; bytes right: %v", c.name, span[0], span[1], allocs, ok)
			}
		}
	}

	seg := segBytes(segGeom.PageSize)
	blob = patterned((maxPieces-1)*seg+100, 2) // as many segments as a read has pieces
	conv, zoned = spanBackends(t, segGeom)
	relocated, live = relocatedTable(t, segGeom, blob)
	for _, c := range []struct {
		name string
		b    Backend
		h    TableHandle
	}{
		{"conv/segments", conv, writeTable(t, conv, blob)},
		{"zns/segments", zoned, writeTable(t, zoned, blob)},
		{"zns/segments relocated", relocated, live},
	} {
		db := Open(c.b, Options{})
		table := &tableMeta{handle: c.h, sizeB: len(blob), indexOff: len(blob)}
		for _, span := range [][2]int{{0, len(blob)}, {seg - 1000, 2*seg + 3000}} {
			var it blobIter
			allocs := testing.AllocsPerRun(20, func() {
				it = blobIter{}
				_, _ = db.readEntries(0, table, span[0], span[1], &it)
			})
			if ok := bytes.Equal(joined(it), blob[span[0]:span[1]]); allocs != 0 || !ok {
				t.Errorf("%s: readEntries(%d, %d) made %.1f allocations; bytes right: %v", c.name, span[0], span[1], allocs, ok)
			}
		}
	}
}
