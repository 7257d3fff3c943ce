package zkv

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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

// The devices keep sub-slices of the blob as page payloads, so any spare
// capacity would stay pinned for as long as the table lives.
func TestTableBlobHasNoSlack(t *testing.T) {
	b := new(tableBuilder)
	for _, n := range []int{1, 2, 50, 700} {
		for i := 0; i < n; i++ {
			b.add(key(i), make([]byte, i%90))
		}
		if blob, _ := b.finish(); cap(blob) != len(blob) {
			t.Errorf("%d entries: blob has len %d, cap %d", n, len(blob), cap(blob))
		}
	}
}

// After one warm-up table the builder's scratch is as large as a table
// needs: adding the next table's entries allocates nothing, and what finish
// returned is not touched by the reuse.
func TestBuilderSteadyStateDoesNotRegrow(t *testing.T) {
	b := new(tableBuilder)
	blob, meta := fixedTable(b)
	before := append([]byte(nil), blob...)
	first, last := string(meta.firstKey), string(meta.lastKey)

	keys := make([][]byte, 700)
	for i := range keys {
		keys[i] = key(i)
	}
	val := make([]byte, 20)
	allocs := testing.AllocsPerRun(20, func() {
		b.reset()
		for _, k := range keys {
			b.add(k, val)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per table of adds in steady state, want 0", allocs)
	}
	if string(blob) != string(before) || string(meta.firstKey) != first || string(meta.lastKey) != last ||
		string(meta.index[len(meta.index)-1].key) > last {
		t.Error("reusing the builder changed a finished table")
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

// FuzzBlobIter: any entry region either walks to its end or stops with
// ErrCorrupt; it never panics.
func FuzzBlobIter(f *testing.F) {
	for _, seed := range tableCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		it := blobIter{data: data}
		for it.next() {
		}
		if it.err == nil && len(it.data) != 0 {
			t.Fatalf("walk stopped cleanly with %d bytes left", len(it.data))
		}
		if it.err != nil && !errors.Is(it.err, ErrCorrupt) {
			t.Fatalf("err = %v", it.err)
		}
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
