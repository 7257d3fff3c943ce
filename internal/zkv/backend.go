package zkv

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"blockhead/internal/ftl"
	"blockhead/internal/sim"
	"blockhead/internal/stats"
)

// TableHandle identifies a stored SSTable blob.
type TableHandle int64

// Backend is the storage layer under the LSM tree. Implementations place
// table blobs and the write-ahead log on a device; the LSM logic above is
// identical for both, so E5's comparison isolates placement and the device
// interface.
type Backend interface {
	// PageSize reports the device page size in bytes.
	PageSize() int
	// WriteTable stores blob as a new table. level is a lifetime hint
	// (LSM level): short-lived L0 data and long-lived deep-level data may
	// be placed differently. The backend keeps a copy, not blob: the
	// caller may reuse blob once WriteTable returns.
	WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error)
	// ReadAt reads bytes [off, off+n) of a table, page-granular underneath.
	// The returned slice may alias the stored payload: callers must not
	// modify it, and copy what they hand on. A span inside one segment of
	// segBytes(PageSize()) bytes (see storeSegments) is returned without a
	// copy; a longer one is copied.
	ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error)
	// Delete drops a table, releasing its space and its payload: the
	// device keeps no reference to the segments WriteTable stored. That
	// release is what lets the backend reuse the memory of a deleted
	// table's segments (its slab slots) for the next table; a reader must
	// not keep what ReadAt returned across a Delete.
	Delete(at sim.Time, h TableHandle) error
	// AppendWAL persists n bytes of log; ResetWAL truncates the log after
	// a flush.
	AppendWAL(at sim.Time, n int) (sim.Time, error)
	ResetWAL(at sim.Time) error
	// Counters exposes device-level accounting (write amplification for E5
	// is Counters().WriteAmp()).
	Counters() *stats.Counters
	// Name identifies the backend in reports.
	Name() string
}

// Errors shared by backends.
var (
	ErrNoSpace     = errors.New("zkv: backend out of space")
	ErrBadHandle   = errors.New("zkv: unknown table handle")
	ErrBadReadSpan = errors.New("zkv: read beyond table")
)

// ---------------------------------------------------------------------------
// Conventional backend: a flat LBA space on a block SSD.

type extent struct {
	start int64
	pages int64
}

type convTable struct {
	ext   extent
	size  int
	slots [][]byte // the table's full segments, slots of the backend's slab
}

// AllocPolicy selects how the conventional backend places table extents.
type AllocPolicy int

const (
	// FirstFit packs tables tightly — an idealized, fragmentation-free
	// filesystem (the kindest case for the conventional device).
	FirstFit AllocPolicy = iota
	// ScatterFit spreads allocations across the free space the way general
	// filesystems (ext4/XFS) do to leave room for file growth. Unrelated
	// tables end up sharing erasure blocks, which is what drives the
	// paper's 5x device write amplification for RocksDB on conventional
	// SSDs (§2.4).
	ScatterFit
)

// ConvBackend places tables on a conventional FTL device with an extent
// allocator, exactly as a filesystem over a block SSD would. Deleted
// tables are trimmed (if the device supports it), but their pages still
// force device GC to relocate neighbors — the "block interface tax" of the
// paper's title argument.
type ConvBackend struct {
	dev      *ftl.Device
	slab     *slab
	policy   AllocPolicy
	rngState uint64
	tables   map[TableHandle]convTable
	free     []extent // sorted by start
	fitting  []int    // alloc's scratch under ScatterFit
	next     TableHandle
	walBase  int64
	walPages int64
	walOff   int64 // bytes appended since last reset
}

// NewConvBackend wraps a conventional device, reserving walPages pages at
// the top of the LBA space as the WAL ring.
func NewConvBackend(dev *ftl.Device, walPages int64) (*ConvBackend, error) {
	if walPages < 1 || walPages >= dev.CapacityPages() {
		return nil, fmt.Errorf("zkv: walPages %d out of range", walPages)
	}
	dataPages := dev.CapacityPages() - walPages
	return &ConvBackend{
		dev:      dev,
		slab:     newSlab(dev, segBytes(dev.PageSize())),
		rngState: 0x9e3779b97f4a7c15,
		tables:   make(map[TableHandle]convTable),
		free:     []extent{{start: 0, pages: dataPages}},
		walBase:  dataPages,
		walPages: walPages,
	}, nil
}

// SetAllocPolicy switches the extent allocation policy (default FirstFit).
func (b *ConvBackend) SetAllocPolicy(p AllocPolicy) { b.policy = p }

// Name implements Backend.
func (b *ConvBackend) Name() string { return "conventional" }

// PageSize implements Backend.
func (b *ConvBackend) PageSize() int { return b.dev.PageSize() }

// Counters implements Backend.
func (b *ConvBackend) Counters() *stats.Counters { return b.dev.Counters() }

// Device exposes the underlying FTL device.
func (b *ConvBackend) Device() *ftl.Device { return b.dev }

func (b *ConvBackend) alloc(pages int64) (int64, bool) {
	fits := func(i int) bool { return b.free[i].pages >= pages }
	take := func(i int) int64 {
		start := b.free[i].start
		b.free[i].start += pages
		b.free[i].pages -= pages
		if b.free[i].pages == 0 {
			b.free = append(b.free[:i], b.free[i+1:]...)
		}
		return start
	}
	if b.policy == ScatterFit {
		// Pick uniformly among fitting extents (xorshift, deterministic).
		candidates := b.fitting[:0]
		for i := range b.free {
			if fits(i) {
				candidates = append(candidates, i)
			}
		}
		b.fitting = candidates
		if len(candidates) == 0 {
			return 0, false
		}
		b.rngState ^= b.rngState << 13
		b.rngState ^= b.rngState >> 7
		b.rngState ^= b.rngState << 17
		return take(candidates[b.rngState%uint64(len(candidates))]), true
	}
	for i := range b.free {
		if fits(i) {
			return take(i), true
		}
	}
	return 0, false
}

func (b *ConvBackend) freeExtent(e extent) {
	i := sort.Search(len(b.free), func(i int) bool { return b.free[i].start >= e.start })
	b.free = append(b.free, extent{})
	copy(b.free[i+1:], b.free[i:])
	b.free[i] = e
	// Merge with neighbors.
	if i+1 < len(b.free) && b.free[i].start+b.free[i].pages == b.free[i+1].start {
		b.free[i].pages += b.free[i+1].pages
		b.free = append(b.free[:i+1], b.free[i+2:]...)
	}
	if i > 0 && b.free[i-1].start+b.free[i-1].pages == b.free[i].start {
		b.free[i-1].pages += b.free[i].pages
		b.free = append(b.free[:i], b.free[i+1:]...)
	}
}

// segBytes is the size of the segments a backend stores a table in: 32 KiB,
// the Go allocator's largest small size class, rounded down to whole pages
// and never less than one page, so no page straddles two segments. A larger
// allocation would take whole 8 KiB runtime pages: a 33.5 KB table stored
// in one piece occupied 40 KiB.
func segBytes(pageSize int) int { return max(pageSize, (32<<10)/pageSize*pageSize) }

// storeSegments copies blob into segments of segBytes(pageSize) bytes, the
// last one shorter, and calls put with each page's payload in page order: a
// sub-slice of its segment that reaches to the segment's end, so readSpan can
// return a window of it. A full segment is a slot taken from s; the shorter
// last one is an exact-size heap allocation, since a slot would keep up to a
// segment of spare bytes for as long as the table lives. The segments are the
// only copy of the table a device keeps; blob is not retained. It returns the
// slots it took, also when put fails.
func storeSegments(blob []byte, pageSize int, s *slab, put func(payload []byte) error) ([][]byte, error) {
	seg := segBytes(pageSize)
	var slots [][]byte
	if full := len(blob) / seg; full > 0 {
		slots = make([][]byte, 0, full)
	}
	for lo := 0; lo < len(blob); lo += seg {
		part := blob[lo:min(lo+seg, len(blob))]
		var sg []byte
		if len(part) == seg {
			sg = s.take()
			slots = append(slots, sg)
			copy(sg, part)
		} else {
			sg = slices.Clip(bytes.Clone(part)) // not zeroed first
		}
		for p := 0; p < len(sg); p += pageSize {
			if err := put(sg[p:min(p+pageSize, len(sg))]); err != nil {
				return slots, err
			}
		}
	}
	return slots, nil
}

// WriteTable implements Backend. The level hint is ignored: a block device
// has no way to use it (§4.1's information barrier).
func (b *ConvBackend) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	ps := int64(b.PageSize())
	pages := (int64(len(blob)) + ps - 1) / ps
	start, ok := b.alloc(pages)
	if !ok {
		return 0, at, ErrNoSpace
	}
	done, lpn := at, start
	slots, err := storeSegments(blob, int(ps), b.slab, func(payload []byte) error {
		d, err := b.dev.WritePage(at, lpn, payload)
		done, lpn = sim.Max(done, d), lpn+1
		return err
	})
	if err != nil {
		_ = b.dev.DropPayload(start, pages) // in range: alloc handed it out
		b.slab.put(slots)
		return 0, at, err
	}
	h := b.next
	b.next++
	b.tables[h] = convTable{ext: extent{start: start, pages: pages}, size: len(blob), slots: slots}
	return h, done, nil
}

// ReadAt implements Backend.
func (b *ConvBackend) ReadAt(at sim.Time, h TableHandle, off, n int) (sim.Time, []byte, error) {
	t, ok := b.tables[h]
	if !ok {
		return at, nil, ErrBadHandle
	}
	if off < 0 || n < 0 || off+n > t.size {
		return at, nil, ErrBadReadSpan
	}
	return readSpan(at, b.PageSize(), off, n, func(page int64) (sim.Time, []byte, error) {
		return b.dev.ReadPage(at, t.ext.start+page)
	})
}

// readSpan assembles bytes [off, off+n) of a table from its pages, all read
// at time at, each page once and in order. readPage returns the payload
// stored for one page of the table, which may be shorter than a page (a
// table's last page) or nil (the device kept none, lost it to a crash, or
// dropped it with a deleted table); bytes past it read as zero.
//
// The devices keep sub-slices of the segments WriteTable stored as page
// payloads, so a span whose every page continues the first page's segment
// is already in memory, in order: readSpan returns that window of the
// segment without copying it. At the first page that does not continue it
// (the next segment, or a nil, short, stale or foreign payload) the window
// so far is copied once and the rest is appended after it, zero-filled past
// each payload's end. The DB reads a span that crosses segments as one
// ReadAt per segment, so it never takes the copy on intact tables.
func readSpan(at sim.Time, pageSize, off, n int, readPage func(page int64) (sim.Time, []byte, error)) (sim.Time, []byte, error) {
	var window []byte // [off, off+n) of the first page's array, while every page continues it
	var out []byte    // the copy, once a page does not
	done := at
	for pos, end := off, off+n; pos < end; {
		d, data, err := readPage(int64(pos / pageSize))
		if err != nil {
			return at, nil, err
		}
		done = sim.Max(done, d)
		from := pos % pageSize
		take := min(pageSize-from, end-pos)
		if pos == off && from+n <= cap(data) {
			window = data[from : from+n : from+n]
		}
		if out == nil {
			if from+take <= len(data) && window != nil && &data[from] == &window[pos-off] {
				pos += take
				continue
			}
			out = append(make([]byte, 0, n), window[:pos-off]...)
		}
		if have := min(from+take, len(data)); from < have {
			out = append(out, data[from:have]...)
		}
		pos += take
		out = append(out, make([]byte, pos-off-len(out))...) // zero fill
	}
	if out == nil {
		return done, window, nil
	}
	return done, out, nil
}

// Delete implements Backend: trim the extent, drop its payload (a device
// without TRIM would keep it until the pages are overwritten), and return
// the table's slots to the slab and the extent to the free list.
func (b *ConvBackend) Delete(at sim.Time, h TableHandle) error {
	t, ok := b.tables[h]
	if !ok {
		return ErrBadHandle
	}
	if err := b.dev.Trim(at, t.ext.start, t.ext.pages); err != nil {
		return err
	}
	if err := b.dev.DropPayload(t.ext.start, t.ext.pages); err != nil {
		return err
	}
	b.slab.put(t.slots)
	delete(b.tables, h)
	b.freeExtent(t.ext)
	return nil
}

// AppendWAL implements Backend: commits rewrite the WAL tail page in place
// (a random overwrite the FTL absorbs), advancing through a ring of
// walPages.
func (b *ConvBackend) AppendWAL(at sim.Time, n int) (sim.Time, error) {
	if n <= 0 {
		return at, nil
	}
	ps := int64(b.PageSize())
	first := b.walOff / ps
	last := (b.walOff + int64(n) - 1) / ps
	done := at
	for p := first; p <= last; p++ {
		d, err := b.dev.WritePage(at, b.walBase+p%b.walPages, nil)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, d)
	}
	b.walOff += int64(n)
	return done, nil
}

// ResetWAL implements Backend.
func (b *ConvBackend) ResetWAL(at sim.Time) error {
	b.walOff = 0
	return b.dev.Trim(at, b.walBase, b.walPages)
}
