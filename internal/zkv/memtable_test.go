package zkv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemtableBasic(t *testing.T) {
	m := newMemtable(1)
	if m.len() != 0 || m.sizeBytes() != 0 {
		t.Error("fresh memtable not empty")
	}
	m.put([]byte("b"), []byte("2"))
	m.put([]byte("a"), []byte("1"))
	m.put([]byte("c"), []byte("3"))
	if m.len() != 3 {
		t.Errorf("len = %d", m.len())
	}
	v, ok := m.get([]byte("b"))
	if !ok || string(v) != "2" {
		t.Errorf("get b = %q, %v", v, ok)
	}
	if _, ok := m.get([]byte("zz")); ok {
		t.Error("phantom key")
	}
}

func TestMemtableOverwrite(t *testing.T) {
	m := newMemtable(2)
	m.put([]byte("k"), []byte("v1"))
	m.put([]byte("k"), []byte("v2longer"))
	if m.len() != 1 {
		t.Errorf("len after overwrite = %d", m.len())
	}
	v, _ := m.get([]byte("k"))
	if string(v) != "v2longer" {
		t.Errorf("overwrite lost: %q", v)
	}
}

func TestMemtableTombstone(t *testing.T) {
	m := newMemtable(3)
	m.put([]byte("k"), nil)
	v, ok := m.get([]byte("k"))
	if !ok || v != nil {
		t.Errorf("tombstone: v=%v ok=%v", v, ok)
	}
}

func TestMemtableIterSorted(t *testing.T) {
	m := newMemtable(4)
	rng := rand.New(rand.NewSource(5))
	keys := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key%06d", rng.Intn(10000))
		keys[k] = true
		m.put([]byte(k), []byte("v"))
	}
	it := m.iter()
	var prev []byte
	n := 0
	for it.next() {
		if prev != nil && bytes.Compare(it.key(), prev) <= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], it.key()...)
		n++
	}
	if n != len(keys) {
		t.Errorf("iterated %d, want %d", n, len(keys))
	}
}

// Property: memtable behaves like a map.
func TestMemtableModelProperty(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		m := newMemtable(6)
		model := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprintf("k%d", op[0]%32)
			v := fmt.Sprintf("v%d-%d", op[1], i)
			m.put([]byte(k), []byte(v))
			model[k] = v
		}
		for k, v := range model {
			got, ok := m.get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return m.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	b := new(tableBuilder)
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("key%06d", i*7))
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i%10 == 3 {
			b.add([]byte(k), nil) // tombstone
		} else {
			b.add([]byte(k), []byte("value-"+k))
		}
	}
	blob, meta := b.finish()
	if meta.entries != 300 {
		t.Errorf("entries = %d", meta.entries)
	}
	if string(meta.firstKey) != keys[0] || string(meta.lastKey) != keys[len(keys)-1] {
		t.Errorf("key range = %q..%q", meta.firstKey, meta.lastKey)
	}

	// The blob is self-describing.
	parsed, err := parseTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.entries != meta.entries || !bytes.Equal(parsed.firstKey, meta.firstKey) ||
		!bytes.Equal(parsed.lastKey, meta.lastKey) || parsed.indexOff != meta.indexOff {
		t.Errorf("parsed meta mismatch: %+v vs %+v", parsed, meta)
	}
	if len(parsed.index) != len(meta.index) {
		t.Errorf("index length: parsed %d vs built %d", len(parsed.index), len(meta.index))
	}

	// Every key is findable through the sparse index.
	for i, k := range keys {
		lo, hi := meta.chunkFor([]byte(k))
		if lo >= hi {
			t.Fatalf("chunkFor(%q) empty", k)
		}
		it := &blobIter{data: blob[lo:hi]}
		found := false
		for it.next() {
			if string(it.key) == k {
				found = true
				if i%10 == 3 {
					if it.value != nil {
						t.Fatalf("%q should be a tombstone", k)
					}
				} else if string(it.value) != "value-"+k {
					t.Fatalf("%q value = %q", k, it.value)
				}
				break
			}
		}
		if !found {
			t.Fatalf("key %q not found via index", k)
		}
	}

	// Keys outside the range produce empty or missing chunks.
	if lo, hi := meta.chunkFor([]byte("a")); lo != hi {
		t.Error("chunk for key before table should be empty")
	}
	if !meta.mayContain([]byte(keys[5])) || meta.mayContain([]byte("zzz")) {
		t.Error("mayContain wrong")
	}
	if meta.String() == "" {
		t.Error("String empty")
	}
}

func TestSSTableCorruptDetection(t *testing.T) {
	if _, err := parseTable(nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := parseTable(make([]byte, 20)); err == nil {
		t.Error("zero blob accepted")
	}
	b := new(tableBuilder)
	b.add([]byte("k"), []byte("v"))
	blob, _ := b.finish()
	// Corrupt the magic.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xff
	if _, err := parseTable(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTableBuilderOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order add did not panic")
		}
	}()
	b := new(tableBuilder)
	b.add([]byte("b"), nil)
	b.add([]byte("a"), nil)
}

func TestEmptyValueVsTombstone(t *testing.T) {
	b := new(tableBuilder)
	b.add([]byte("empty"), []byte{})
	b.add([]byte("tomb"), nil)
	blob, meta := b.finish()
	it := &blobIter{data: blob[:meta.indexOff]}
	if !it.next() || it.value == nil {
		t.Error("empty value decoded as tombstone")
	}
	if !it.next() || it.value != nil {
		t.Error("tombstone decoded as value")
	}
}
