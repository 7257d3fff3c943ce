package zkv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// fixedTable builds one table with values, empty values and tombstones,
// several index checkpoints long.
func fixedTable(b *tableBuilder) ([]byte, *tableMeta) {
	for i := 0; i < 700; i++ {
		k := []byte(fmt.Sprintf("key%06d", i*7))
		switch {
		case i%10 == 3:
			b.add(k, nil)
		case i%10 == 7:
			b.add(k, []byte{})
		default:
			b.add(k, []byte(fmt.Sprintf("value-%d-%s", i, k)))
		}
	}
	return b.finish()
}

// The blob format is pinned: this digest was computed with the
// regrowing-buffer builder and hash/fnv filter this package had before the
// reusable builder, over the same 700 entries.
func TestTableBlobFormatPinned(t *testing.T) {
	blob, meta := fixedTable(new(tableBuilder))
	const want = "e2f0b4e9b15ec8e3bfa9bcacd612e204ba20df10b49ed06bb29f52b1f81f9c26"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want || len(blob) != 19204 || len(meta.index) != 5 {
		t.Errorf("blob of %d bytes, %d checkpoints, sha256 %s; want 19204, 5, %s", len(blob), len(meta.index), got, want)
	}
}

// After one warm-up table the builder's scratch is as large as a table
// needs: adding the next table's entries allocates nothing, and neither does
// sealing them into a blob, which is the scratch itself. finish's only
// allocations are the table's metadata, and reusing the builder leaves a
// finished table's metadata as it was.
func TestBuilderSteadyStateDoesNotRegrow(t *testing.T) {
	b := new(tableBuilder)
	_, meta := fixedTable(b)
	first, last := string(meta.firstKey), string(meta.lastKey)

	keys := make([][]byte, 700)
	for i := range keys {
		keys[i] = key(i)
	}
	val := make([]byte, 20)
	adds := func() {
		b.reset()
		for _, k := range keys {
			b.add(k, val)
		}
	}
	if allocs := testing.AllocsPerRun(20, adds); allocs != 0 {
		t.Errorf("%.1f allocations per table of adds in steady state, want 0", allocs)
	}
	adds()
	filter, entries := newBloom(b.count), len(b.ents)
	var blob []byte
	allocs := testing.AllocsPerRun(20, func() {
		b.ents = b.ents[:entries]
		blob = b.seal(filter)
	})
	if allocs != 0 || &blob[0] != &b.ents[0] || len(blob) <= entries {
		t.Errorf("seal made %.1f allocations, want 0, and a blob of %d bytes in the scratch", allocs, len(blob))
	}
	if string(meta.firstKey) != first || string(meta.lastKey) != last ||
		string(meta.index[len(meta.index)-1].key) > last {
		t.Error("reusing the builder changed a finished table's metadata")
	}
}

// hugeLengths returns two entry regions whose key and value lengths are
// 2^63 or more — negative once converted to int — and a whole table whose
// only index entry claims such a key.
func hugeLengths() (entries [][]byte, table []byte) {
	huge := binary.AppendUvarint(nil, 1<<63)
	entries = [][]byte{
		append(append([]byte(nil), huge...), 1, 'k'),
		append(binary.AppendUvarint([]byte{1}, 1<<63+1), 'k', 'v'),
	}
	table = append(append([]byte(nil), huge...), 'k', 0)                 // index region, no entries, no filter
	table = binary.LittleEndian.AppendUint32(table, 0)                   // indexOff
	table = binary.LittleEndian.AppendUint32(table, uint32(len(huge)+2)) // filterOff
	table = binary.LittleEndian.AppendUint32(table, 0)
	return entries, binary.LittleEndian.AppendUint32(table, tableMagic)
}

// Both used to pass a signed bounds check and panic in a slice expression.
func TestHugeLengthsAreCorruptNotPanics(t *testing.T) {
	entries, table := hugeLengths()
	for _, data := range entries {
		it := blobIter{data: data}
		if it.next() || !errors.Is(it.err, ErrCorrupt) {
			t.Errorf("entry %x: err %v, want ErrCorrupt", data, it.err)
		}
	}
	if _, err := parseTable(table); !errors.Is(err, ErrCorrupt) {
		t.Errorf("table %x: err %v, want ErrCorrupt", table, err)
	}
}

// tableCorpus is the fuzz targets' shared seed corpus: a valid blob, the
// malformed classes TestSSTableCorruptDetection lists (nil, zeros, bad
// magic), truncations, and the 2^63 lengths.
func tableCorpus() [][]byte {
	blob, meta := fixedTable(new(tableBuilder))
	badMagic := append([]byte(nil), blob...)
	badMagic[len(badMagic)-1] ^= 0xff
	entries, table := hugeLengths()
	return append(entries, table, blob, nil, make([]byte, 20), badMagic,
		blob[:meta.indexOff], blob[:meta.indexOff-3], blob[:len(blob)-1], blob[5:])
}

// cutAt returns an iterator over data in pieces cut at the ascending
// offsets cuts, each piece a private exact-size copy, as readEntries hands
// over one window per segment.
func cutAt(data []byte, cuts ...int) blobIter {
	var it blobIter
	lo := 0
	for i, hi := range append(cuts, len(data)) {
		p := slices.Clip(bytes.Clone(data[lo:hi]))
		if i == 0 {
			it.data = p
		} else {
			it.later[i-1], it.pieces = p, i
		}
		lo = hi
	}
	return it
}

// walk runs an iterator to its end and renders every entry it yields; it
// fails the test if the walk stopped cleanly with bytes unread.
func walk(t *testing.T, it blobIter) ([]string, error) {
	t.Helper()
	var ents []string
	for it.next() {
		ents = append(ents, fmt.Sprintf("%q=%q/%v", it.key, it.value, it.value == nil))
	}
	if it.err == nil && (len(it.data) != 0 || it.piece != it.pieces) {
		t.Fatalf("walk stopped cleanly with %d bytes and %d pieces left", len(it.data), it.pieces-it.piece)
	}
	return ents, it.err
}

// checkCuts requires the walk of data cut into pieces at cuts to match the
// walk of data whole: the same entries and the same error. The cut walk
// copies straddling entries into spill buffers, as a merge source does.
func checkCuts(t *testing.T, data []byte, cuts ...int) {
	t.Helper()
	want, wantErr := walk(t, blobIter{data: data})
	it := cutAt(data, cuts...)
	it.spill = new(spillBufs)
	got, gotErr := walk(t, it)
	if !slices.Equal(got, want) || gotErr != wantErr {
		t.Fatalf("%x cut at %v: %q, %v; whole: %q, %v", data, cuts, got, gotErr, want, wantErr)
	}
}

// entryRegion serializes entries the way tableBuilder.add does; a nil
// value is a tombstone.
func entryRegion(kvs ...[]byte) []byte {
	var region []byte
	for i := 0; i < len(kvs); i += 2 {
		vlen := uint64(0)
		if kvs[i+1] != nil {
			vlen = uint64(len(kvs[i+1])) + 1
		}
		region = binary.AppendUvarint(region, uint64(len(kvs[i])))
		region = binary.AppendUvarint(region, vlen)
		region = append(append(region, kvs[i]...), kvs[i+1]...)
	}
	return region
}

// tenByteVarints is one valid entry, key "k" and value "v", whose two
// length headers are padded to ten bytes each (Uvarint accepts them).
var tenByteVarints = []byte{
	0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, // klen 1
	0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, // vlen+1 2
	'k', 'v',
}

// An entry region cut into pieces — at every offset, every pair of offsets
// and, for the short regions, every triple — walks to the same entries and
// the same error as the whole region. The regions put a cut inside
// two-byte varint headers, keys and values, between entries, at either end,
// and into every class of damage the whole region reports as ErrCorrupt.
func TestPiecewiseIterMatchesWhole(t *testing.T) {
	long := entryRegion(bytes.Repeat([]byte("k"), 128), bytes.Repeat([]byte("v"), 130), []byte("t"), nil, []byte("u"), []byte{})
	short := entryRegion([]byte("ab"), []byte("xyz"), []byte("c"), nil, []byte("d"), []byte{}, []byte("e"), []byte("12345"))
	entries, table := hugeLengths()
	fixed, meta := fixedTable(new(tableBuilder))
	for _, c := range []struct {
		name    string
		data    []byte
		triples bool
	}{
		{"two-byte headers, tombstone, empty value", long, false},
		{"short entries", short, true},
		{"value past the end", short[:len(short)-2], true},
		{"key past the end", entryRegion([]byte("key"), []byte("v"))[:4], true},
		{"header cut short", append(append([]byte(nil), short...), 0x80), true},
		{"overlong varint", append(append([]byte(nil), short[:6]...), bytes.Repeat([]byte{0xff}, 11)...), true},
		{"ten-byte varints", tenByteVarints, true},
		{"2^63 key length", entries[0], true},
		{"2^63 value length", entries[1], true},
		{"not an entry region", table, false},
		{"empty", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.data)
			for i := 0; i <= n; i++ {
				checkCuts(t, c.data, i)
				for j := i; j <= n; j++ {
					checkCuts(t, c.data, i, j)
					for k := j; c.triples && k <= n; k++ {
						checkCuts(t, c.data, i, j, k)
					}
				}
			}
		})
	}
	if ents, err := walk(t, blobIter{data: tenByteVarints}); len(ents) != 1 || err != nil {
		t.Fatalf("ten-byte varints: %q, %v; want one entry", ents, err)
	}
	t.Run("a whole table's entries", func(t *testing.T) {
		region := fixed[:meta.indexOff]
		for i := 0; i <= len(region); i += 61 {
			checkCuts(t, region, i)
		}
	})
}

// FuzzBlobIter: any entry region either walks to its end or stops with
// ErrCorrupt, it never panics, and cut into pieces at up to three offsets
// it walks to the same entries and the same error.
func FuzzBlobIter(f *testing.F) {
	for i, seed := range tableCorpus() {
		f.Add(seed, uint16(i*37), uint16(i*101), uint16(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, c1, c2, c3 uint16) {
		_, err := walk(t, blobIter{data: data})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
		cuts := []int{int(c1) % (len(data) + 1), int(c2) % (len(data) + 1), int(c3) % (len(data) + 1)}
		slices.Sort(cuts)
		checkCuts(t, data, cuts...)
	})
}

// FuzzParseTable: any blob is either rejected or yields metadata every
// reader can use the way searchTable and Scan do, without a panic.
func FuzzParseTable(f *testing.F) {
	for _, seed := range tableCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		meta, err := parseTable(blob)
		if err != nil {
			return
		}
		for _, k := range [][]byte{nil, meta.firstKey, meta.lastKey, []byte("key002450"), {0xff}} {
			meta.mayContain(k)
			meta.filter.mayContain(bloomHash(k))
			if lo, hi := meta.chunkFor(k); lo < hi {
				it := blobIter{data: blob[lo:hi]}
				for it.next() {
				}
			}
		}
	})
}
