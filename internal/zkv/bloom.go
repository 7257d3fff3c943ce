package zkv

import "encoding/binary"

// bloom is a split-free Bloom filter with double hashing (the
// Kirsch-Mitzenmacher construction LevelDB uses). It keeps point lookups
// for absent keys from touching flash at all: a probe that fails the
// filter skips the table without any I/O.
type bloom struct {
	bits []byte
	k    uint32 // hash functions
}

// bloomBitsPerKey trades memory for false-positive rate; 10 bits/key gives
// ~1% FPR with k = 7, the classic LSM configuration.
const bloomBitsPerKey = 10

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	bits := n * bloomBitsPerKey
	if bits < 64 {
		bits = 64
	}
	kf := float64(bloomBitsPerKey) * 0.69 // ln 2
	k := uint32(kf)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloom{bits: make([]byte, (bits+7)/8), k: k}
}

// bloomHash is 64-bit FNV-1a, the one hash every probe position derives
// from: callers hash a key once and hand the result to add or mayContain,
// however many filters they consult.
func bloomHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// add inserts the key whose bloomHash is h.
func (b *bloom) add(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether the key whose bloomHash is h may be present.
func (b *bloom) mayContain(h uint64) bool {
	if b == nil || len(b.bits) == 0 {
		return true // no filter: cannot exclude
	}
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b.bits) * 8)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// appendTo serializes the filter as k (uvarint) followed by the bit array.
func (b *bloom) appendTo(dst []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(b.k)), b.bits...)
}

// unmarshalBloom parses a marshaled filter; a nil/empty buffer yields nil
// (no filter).
func unmarshalBloom(buf []byte) (*bloom, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	k, n := binary.Uvarint(buf)
	if n <= 0 || k == 0 || k > 64 {
		return nil, ErrCorrupt
	}
	return &bloom{bits: append([]byte(nil), buf[n:]...), k: uint32(k)}, nil
}
