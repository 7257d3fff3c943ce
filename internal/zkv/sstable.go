package zkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// SSTable blob layout:
//
//	entries:  (uvarint klen | uvarint vlen+1 | key | value)*   vlen+1==0 -> tombstone
//	index:    (uvarint klen | key | uvarint byteOff)*           one per checkpoint
//	filter:   uvarint k | bloom bit array
//	footer:   uint32 indexOff | uint32 filterOff | uint32 entryCount | uint32 magic
//
// A sparse in-memory index (one checkpoint per ~indexInterval bytes of
// entries, always at an entry boundary) and a Bloom filter are kept per
// table for point lookups; the serialized copies make the blob
// self-describing.
const (
	tableMagic    = 0x5a4b5632 // "ZKV2"
	indexInterval = 4096
	footerSize    = 16
)

// ErrCorrupt reports a malformed table blob.
var ErrCorrupt = errors.New("zkv: corrupt sstable")

type indexEntry struct {
	key []byte
	off int
}

// tableMeta is the in-memory handle to one SSTable.
type tableMeta struct {
	handle   TableHandle
	level    int
	sizeB    int
	entries  int
	firstKey []byte
	lastKey  []byte
	index    []indexEntry // sparse, ascending
	indexOff int          // byte offset where entries end
	filter   *bloom       // per-table Bloom filter (may be nil)
	seq      uint64       // creation sequence; larger = newer (L0 ordering)
}

// tableBuilder accumulates sorted entries and serializes them into a blob.
// One builder serves every table a DB writes: its scratch survives finish,
// so after the first table neither add nor finish allocates or regrows. The
// blob finish returns is that scratch too, valid until the next add: the
// backends copy it into segments of their own (see storeSegments), so
// nothing keeps it once WriteTable returns.
type tableBuilder struct {
	ents    []byte   // entry region; finish appends the index, filter and footer
	idx     []byte   // index region, serialized as checkpoints are taken
	hashes  []uint64 // bloomHash of every key, for the filter
	last    []byte   // the latest key, aliasing ents
	count   int
	nextIdx int
}

// reset empties the builder for the next table, keeping its scratch.
func (b *tableBuilder) reset() {
	*b = tableBuilder{ents: b.ents[:0], idx: b.idx[:0], hashes: b.hashes[:0]}
}

// add appends an entry; keys must arrive in strictly increasing order.
func (b *tableBuilder) add(key, value []byte) {
	if b.count > 0 && bytes.Compare(key, b.last) <= 0 {
		panic("zkv: tableBuilder keys out of order")
	}
	if len(b.ents) >= b.nextIdx {
		b.idx = binary.AppendUvarint(b.idx, uint64(len(key)))
		b.idx = append(b.idx, key...)
		b.idx = binary.AppendUvarint(b.idx, uint64(len(b.ents)))
		b.nextIdx = len(b.ents) + indexInterval
	}
	vlen := uint64(0)
	if value != nil {
		vlen = uint64(len(value)) + 1
	}
	b.ents = binary.AppendUvarint(b.ents, uint64(len(key)))
	b.ents = binary.AppendUvarint(b.ents, vlen)
	b.ents = append(b.ents, key...)
	b.last = b.ents[len(b.ents)-len(key):]
	b.ents = append(b.ents, value...)
	b.hashes = append(b.hashes, bloomHash(key))
	b.count++
}

// empty reports whether nothing has been added.
func (b *tableBuilder) empty() bool { return b.count == 0 }

// sizeEstimate reports the current entry-region size.
func (b *tableBuilder) sizeEstimate() int { return len(b.ents) }

// finish serializes the blob, returns it with the table's metadata (handle
// and level are filled in by the caller after the backend write) and resets
// the builder. The blob is the builder's scratch (see seal): it stays valid
// until the next add, and the caller hands it to WriteTable before then.
// The metadata owns copies of the keys it holds, never the scratch.
func (b *tableBuilder) finish() ([]byte, *tableMeta) {
	filter := newBloom(b.count)
	for _, h := range b.hashes {
		filter.add(h)
	}
	index, err := parseIndex(b.idx, len(b.ents))
	if err != nil {
		panic("zkv: tableBuilder wrote an index it cannot parse")
	}
	var first []byte
	if len(index) > 0 {
		first = index[0].key // the first add always takes a checkpoint
	}
	meta := &tableMeta{
		entries:  b.count,
		firstKey: first,
		lastKey:  append([]byte(nil), b.last...),
		index:    index,
		indexOff: len(b.ents),
		filter:   filter,
	}
	blob := b.seal(filter)
	meta.sizeB = len(blob)
	b.reset()
	return blob, meta
}

// seal appends the index region, filter and footer to the entry region in
// place and returns the whole blob, which is b.ents: once the scratch has
// held one table of this size, it allocates nothing.
func (b *tableBuilder) seal(filter *bloom) []byte {
	indexOff := len(b.ents)
	b.ents = append(b.ents, b.idx...)
	filterOff := len(b.ents)
	b.ents = filter.appendTo(b.ents)
	b.ents = binary.LittleEndian.AppendUint32(b.ents, uint32(indexOff))
	b.ents = binary.LittleEndian.AppendUint32(b.ents, uint32(filterOff))
	b.ents = binary.LittleEndian.AppendUint32(b.ents, uint32(b.count))
	b.ents = binary.LittleEndian.AppendUint32(b.ents, tableMagic)
	return b.ents
}

// parseIndex decodes a serialized index region whose checkpoints must lie
// within [0, indexOff]. The entries' keys share one private copy of the
// region, so the result does not alias idx.
func parseIndex(idx []byte, indexOff int) ([]indexEntry, error) {
	idx = append([]byte(nil), idx...)
	index := make([]indexEntry, 0, indexOff/indexInterval+1)
	for len(idx) > 0 {
		klen, n := binary.Uvarint(idx)
		if n <= 0 || klen > uint64(len(idx)-n) {
			return nil, ErrCorrupt
		}
		key := idx[n : n+int(klen) : n+int(klen)]
		idx = idx[n+int(klen):]
		off, n := binary.Uvarint(idx)
		if n <= 0 || off > uint64(indexOff) {
			return nil, ErrCorrupt
		}
		idx = idx[n:]
		index = append(index, indexEntry{key: key, off: int(off)})
	}
	return index, nil
}

// parseTable reconstructs metadata from a blob — used on "open" and in
// tests to prove the format is self-describing.
func parseTable(blob []byte) (*tableMeta, error) {
	if len(blob) < footerSize {
		return nil, ErrCorrupt
	}
	f := blob[len(blob)-footerSize:]
	if binary.LittleEndian.Uint32(f[12:]) != tableMagic {
		return nil, ErrCorrupt
	}
	indexOff := int(binary.LittleEndian.Uint32(f[0:]))
	filterOff := int(binary.LittleEndian.Uint32(f[4:]))
	count := int(binary.LittleEndian.Uint32(f[8:]))
	if indexOff > filterOff || filterOff > len(blob)-footerSize {
		return nil, ErrCorrupt
	}
	meta := &tableMeta{sizeB: len(blob), entries: count, indexOff: indexOff}
	filter, err := unmarshalBloom(blob[filterOff : len(blob)-footerSize])
	if err != nil {
		return nil, err
	}
	meta.filter = filter
	if meta.index, err = parseIndex(blob[indexOff:filterOff], indexOff); err != nil {
		return nil, err
	}
	// First/last keys from the entry region.
	it := blobIter{data: blob[:indexOff]}
	for it.next() {
		if meta.firstKey == nil {
			meta.firstKey = append([]byte(nil), it.key...)
		}
		meta.lastKey = append(meta.lastKey[:0], it.key...)
	}
	if it.err != nil {
		return nil, it.err
	}
	return meta, nil
}

// maxPieces bounds the pieces one blobIter walks: a table span is read as
// one piece per segment, and a span of more segments than this reads its
// tail as one piece (see DB.readEntries).
const maxPieces = 4

// blobIter walks an entry region sequentially. The region may come in
// pieces, read one per segment: data is the unread part of the current
// piece and later[piece:pieces] the pieces after it. An entry inside one
// piece is returned as slices of it; one that straddles a cut is copied,
// into spill's buffers when the iterator has them and into a slice of its
// own when it does not.
type blobIter struct {
	data          []byte
	later         [maxPieces - 1][]byte
	piece, pieces int
	key           []byte
	value         []byte // nil for tombstones
	err           error
	spill         *spillBufs
}

// spillBufs are the two buffers a merge source copies straddling entries
// into, taken in turn and shared by the iterators of every table in its
// run: the entry a source returned stays valid while it advances once
// more, as long as the merger reads it, and a merge of full tables
// allocates nothing for them once the buffers have grown.
type spillBufs [2][]byte

// take swaps the buffers and returns the first, resized to n bytes; a nil
// s returns a slice of its own.
func (s *spillBufs) take(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	s[0], s[1] = s[1], s[0]
	if cap(s[0]) < n {
		s[0] = make([]byte, n)
	}
	return s[0][:n]
}

// next decodes one entry. Lengths are compared as uint64 before any
// conversion: a length of 2^63 or more would turn negative as an int, pass
// a signed bounds check and panic in the slice expression.
func (it *blobIter) next() bool {
	for len(it.data) == 0 && it.piece < it.pieces {
		it.data, it.piece = it.later[it.piece], it.piece+1
	}
	if len(it.data) == 0 || it.err != nil {
		return false
	}
	data := it.data
	klen, n1 := binary.Uvarint(data)
	vlenPlus, n2 := uint64(0), 0
	if n1 > 0 {
		vlenPlus, n2 = binary.Uvarint(data[n1:])
	}
	if n1 <= 0 || n2 <= 0 || klen > uint64(len(data)-n1-n2) ||
		vlenPlus > 0 && vlenPlus-1 > uint64(len(data)-n1-n2)-klen {
		return it.nextAcross() // the entry goes on in the next piece, or is corrupt
	}
	data = data[n1+n2:]
	it.key, data = data[:klen], data[klen:]
	it.value = nil
	if vlenPlus > 0 {
		it.value, data = data[:vlenPlus-1], data[vlenPlus-1:]
	}
	it.data = data
	return true
}

// nextAcross decodes an entry that does not fit in the current piece: it
// straddles a cut, or the region is corrupt, which nextAcross reports
// exactly where the same bytes in one piece would be. The header is decoded
// from a copy of the next bytes (two uvarints read at most
// 2*MaxVarintLen64+1 of them), and a whole entry is copied into the next
// spill buffer, or a slice of its own.
func (it *blobIter) nextAcross() bool {
	left := len(it.data)
	for _, p := range it.later[it.piece:it.pieces] {
		left += len(p)
	}
	var buf [2*binary.MaxVarintLen64 + 1]byte
	hdr := buf[:min(len(buf), left)]
	it.copyOut(hdr, false)
	klen, n1 := binary.Uvarint(hdr)
	if n1 <= 0 {
		it.err = ErrCorrupt
		return false
	}
	vlenPlus, n2 := binary.Uvarint(hdr[n1:])
	if n2 <= 0 {
		it.err = ErrCorrupt
		return false
	}
	left -= n1 + n2
	if klen > uint64(left) {
		it.err = ErrCorrupt
		return false
	}
	left -= int(klen)
	vlen := uint64(0)
	if vlenPlus > 0 {
		if vlen = vlenPlus - 1; vlen > uint64(left) {
			it.err = ErrCorrupt
			return false
		}
	}
	it.copyOut(hdr[:n1+n2], true)
	entry := it.spill.take(int(klen) + int(vlen))
	it.copyOut(entry, true)
	it.key = entry[:klen]
	it.value = nil
	if vlenPlus > 0 {
		it.value = entry[klen:]
	}
	return true
}

// copyOut copies the next len(dst) unread bytes, which must exist, into
// dst; consume moves past them.
func (it *blobIter) copyOut(dst []byte, consume bool) {
	data, piece := it.data, it.piece
	for n := 0; ; {
		c := copy(dst[n:], data)
		n, data = n+c, data[c:]
		if n == len(dst) {
			break
		}
		data, piece = it.later[piece], piece+1
	}
	if consume {
		it.data, it.piece = data, piece
	}
}

// chunkFor returns the byte range [lo, hi) of the entry region that can
// contain key, based on the sparse index.
func (t *tableMeta) chunkFor(key []byte) (lo, hi int) {
	if len(t.index) == 0 {
		return 0, t.indexOff
	}
	// Greatest checkpoint with index key <= key.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) > 0
	}) - 1
	if i < 0 {
		return 0, 0 // key precedes the table
	}
	lo = t.index[i].off
	if i+1 < len(t.index) {
		hi = t.index[i+1].off
	} else {
		hi = t.indexOff
	}
	return lo, hi
}

// mayContain is the cheap range test used before any I/O.
func (t *tableMeta) mayContain(key []byte) bool {
	return bytes.Compare(key, t.firstKey) >= 0 && bytes.Compare(key, t.lastKey) <= 0
}

// String implements fmt.Stringer.
func (t *tableMeta) String() string {
	return fmt.Sprintf("table{L%d %dB %d entries [%q..%q]}",
		t.level, t.sizeB, t.entries, t.firstKey, t.lastKey)
}
