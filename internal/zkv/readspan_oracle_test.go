package zkv

// The span reader this package had before reads aliased the stored blob —
// every page's payload appended into one fresh buffer, zero-filled past a
// payload's end — kept verbatim (renamed, nothing else changed) as the
// oracle for TestReadSpanMatchesCopyingParent.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockhead/internal/sim"
)

// copySpan assembles bytes [off, off+n) of a table from its pages, all read
// at time at. readPage returns the payload stored for one page of the
// table, which may be shorter than a page (a table's last page) or nil (the
// device kept none, or lost it to a crash); bytes past it read as zero.
// Payload bytes are copied once, straight into the result.
func copySpan(at sim.Time, pageSize, off, n int, readPage func(page int64) (sim.Time, []byte, error)) (sim.Time, []byte, error) {
	out := make([]byte, 0, n)
	done := at
	for pos, end := off, off+n; pos < end; {
		d, data, err := readPage(int64(pos / pageSize))
		if err != nil {
			return at, nil, err
		}
		done = sim.Max(done, d)
		from := pos % pageSize
		take := min(pageSize-from, end-pos)
		if have := min(from+take, len(data)); from < have {
			out = append(out, data[from:have]...)
		}
		pos += take
		out = append(out, make([]byte, pos-off-len(out))...) // zero fill
	}
	return done, out, nil
}

// spanLayout is a fake device's view of one table: the payload and the
// completion time each page read returns, and the page whose read fails.
type spanLayout struct {
	name     string
	pageSize int
	size     int      // table bytes; spans lie in [0, size)
	pages    [][]byte // payload by page
	times    []sim.Time
	failAt   int      // page whose read returns an error; -1 for none
	arrays   [][]byte // the arrays the payloads are cut from
	bases    []int    // the table offset each array starts at; nil for all 0
}

var errPageRead = errors.New("page read failed")

// reader returns a readPage over the layout that logs every page it reads.
func (l *spanLayout) reader(at sim.Time, log *[]int64) func(page int64) (sim.Time, []byte, error) {
	return func(page int64) (sim.Time, []byte, error) {
		*log = append(*log, page)
		if int(page) == l.failAt {
			return at, nil, errPageRead
		}
		return at + l.times[page], l.pages[page], nil
	}
}

// aliases reports whether got starts at byte off of one of the layout's
// arrays, i.e. readSpan returned a window instead of a copy.
func (l *spanLayout) aliases(got []byte, off int) bool {
	for i, a := range l.arrays {
		at := off
		if l.bases != nil {
			at -= l.bases[i]
		}
		if len(got) > 0 && 0 <= at && at < len(a) && &got[0] == &a[at] {
			return true
		}
	}
	return false
}

// spanLayouts builds one table per payload shape, all from rng: one
// contiguous array; a nil payload mid-table; a page short of its bytes
// mid-table and at the tail, still inside the array; a page cut from a
// second array holding different bytes; a failing page read; and the
// table's bytes in exact-size segments of one to three pages, as the
// backends store them.
func spanLayouts(rng *rand.Rand) []*spanLayout {
	ps := 1 + rng.Intn(8)
	npages := 3 + rng.Intn(4)
	size := (npages-1)*ps + 1 + rng.Intn(ps) // the last page may be short
	arr := make([]byte, size)
	other := make([]byte, size)
	for i := range arr {
		arr[i] = byte(1 + rng.Intn(255)) // never zero, so a missed zero fill shows
		other[i] = arr[i] ^ 0x5a
	}
	contiguous := func(name string) *spanLayout {
		l := &spanLayout{name: name, pageSize: ps, size: size, failAt: -1, arrays: [][]byte{arr, other}}
		for p := 0; p < npages; p++ {
			l.pages = append(l.pages, arr[p*ps:min((p+1)*ps, size):size])
			l.times = append(l.times, sim.Time(1+rng.Intn(1000)))
		}
		return l
	}
	mid := 1 + rng.Intn(npages-2) // neither the first nor the last page
	last := npages - 1

	nilMid := contiguous("nil mid-table")
	nilMid.pages[mid] = nil
	shortMid := contiguous("short mid-table")
	shortMid.pages[mid] = arr[mid*ps : mid*ps+rng.Intn(ps)]
	shortTail := contiguous("short tail")
	shortTail.pages[last] = arr[last*ps : last*ps+rng.Intn(size-last*ps)]
	foreign := contiguous("second array")
	foreign.pages[mid] = other[mid*ps : (mid+1)*ps]
	foreignFirst := contiguous("second array first")
	foreignFirst.pages[0] = other[:ps]
	failing := contiguous("failing read")
	failing.failAt = mid
	segmented := contiguous("segments")
	segmented.arrays = nil
	for lo, segLen := 0, (1+rng.Intn(3))*ps; lo < size; lo += segLen {
		seg := slices.Clip(slices.Clone(arr[lo:min(lo+segLen, size)]))
		segmented.arrays = append(segmented.arrays, seg)
		segmented.bases = append(segmented.bases, lo)
		for p := lo; p < lo+len(seg); p += ps {
			segmented.pages[p/ps] = seg[p-lo : min(p-lo+ps, len(seg))]
		}
	}
	return []*spanLayout{contiguous("contiguous"), nilMid, shortMid, shortTail, foreign, foreignFirst, failing, segmented}
}

// TestReadSpanMatchesCopyingParent reads every (off, n) span of seeded
// table layouts — zero-length spans and spans that start and end mid-page
// included — through readSpan and through the parent's copySpan, and
// requires the same bytes, the same completion time and error, and the
// same page reads in the same order. The result must also be exact-size, so
// a caller's append cannot write into a stored blob. It fails unless both
// the aliasing and the copying path ran. Then it reads tables stored in
// slab slots, some of them returned and reused, on both backends
// (readSpanOverSlabs).
func TestReadSpanMatchesCopyingParent(t *testing.T) {
	const at = sim.Time(5000)
	var aliased, copied int
	for seed := int64(0); seed < 40; seed++ {
		for _, l := range spanLayouts(rand.New(rand.NewSource(seed))) {
			for off := 0; off <= l.size; off++ {
				for n := 0; off+n <= l.size; n++ {
					what := fmt.Sprintf("seed %d, %s (page %d B, table %d B): span [%d, +%d)", seed, l.name, l.pageSize, l.size, off, n)
					var gotLog, wantLog []int64
					gotDone, got, gotErr := readSpan(at, l.pageSize, off, n, l.reader(at, &gotLog))
					wantDone, want, wantErr := copySpan(at, l.pageSize, off, n, l.reader(at, &wantLog))
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: bytes %x, want %x", what, got, want)
					}
					if gotDone != wantDone || !errors.Is(gotErr, wantErr) {
						t.Fatalf("%s: done %d err %v, want %d err %v", what, gotDone, gotErr, wantDone, wantErr)
					}
					if !slices.Equal(gotLog, wantLog) {
						t.Fatalf("%s: page reads %v, want %v", what, gotLog, wantLog)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s: result has len %d, cap %d", what, len(got), cap(got))
					}
					switch {
					case l.aliases(got, off):
						aliased++
					case n > 0 && gotErr == nil:
						copied++
					}
				}
			}
		}
	}
	if aliased == 0 || copied == 0 {
		t.Fatalf("%d spans aliased, %d copied: both paths must run", aliased, copied)
	}
	readSpanOverSlabs(t)
}

// readSpanOverSlabs is TestReadSpanMatchesCopyingParent over both backends'
// devices, in poison mode: tables of one to three full segments and a tail
// are written, every other one deleted (its slots poisoned and returned)
// and later tables written into those slots; then every span of a live
// table that starts and ends near a cut or an end, read page by page from
// the device, gives the bytes written through readSpan and through
// copySpan.
func readSpanOverSlabs(t *testing.T) {
	conv, zoned := spanBackends(t, segGeom)
	ps, seg := segGeom.PageSize, segBytes(segGeom.PageSize)
	for name, b := range map[string]Backend{"conv": conv, "zns": zoned} {
		poisonSlab(t, b)
		blobs := map[TableHandle][]byte{}
		var dead [][]byte // the deleted tables' slots
		for i := 0; i < 8; i++ {
			blob := patterned((1+i%3)*seg+100*(i+1), byte(i))
			h := writeTable(t, b, blob)
			blobs[h] = blob
			if i%2 == 1 {
				dead = append(dead, tableSlots(b, h)...)
				if err := b.Delete(0, h); err != nil {
					t.Fatal(err)
				}
				delete(blobs, h)
			}
		}
		reused := 0
		for h, blob := range blobs {
			for _, s := range tableSlots(b, h) {
				if slices.ContainsFunc(dead, func(d []byte) bool { return &d[0] == &s[0] }) {
					reused++
				}
			}
			var near []int // offsets within 2 bytes of a cut or an end
			for c := 0; c <= len(blob)+seg; c += seg {
				for o := max(0, c-2); o <= min(len(blob), c+2); o++ {
					near = append(near, o)
				}
			}
			near = append(near, len(blob)-1, len(blob))
			_, page := tablePages(t, b, h)
			for _, lo := range near {
				for _, hi := range near {
					if lo > hi {
						continue
					}
					_, got, err := readSpan(0, ps, lo, hi-lo, page)
					_, want, _ := copySpan(0, ps, lo, hi-lo, page)
					if err != nil || !bytes.Equal(got, want) || !bytes.Equal(got, blob[lo:hi]) {
						t.Fatalf("%s: table %d, span [%d, %d): %v; readSpan right: %v, copySpan right: %v",
							name, h, lo, hi, err, bytes.Equal(got, blob[lo:hi]), bytes.Equal(want, blob[lo:hi]))
					}
				}
			}
		}
		if reused == 0 {
			t.Fatalf("%s: no table took a returned slot", name)
		}
	}
}
