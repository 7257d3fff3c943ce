package zkv

import (
	"fmt"
	"testing"
	"testing/quick"

	"blockhead/internal/sim"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(bloomHash([]byte(fmt.Sprintf("key%06d", i))))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(bloomHash([]byte(fmt.Sprintf("key%06d", i)))) {
			t.Fatalf("false negative for key%06d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := newBloom(2000)
	for i := 0; i < 2000; i++ {
		b.add(bloomHash([]byte(fmt.Sprintf("key%06d", i))))
	}
	fp := 0
	probes := 10000
	for i := 0; i < probes; i++ {
		if b.mayContain(bloomHash([]byte(fmt.Sprintf("absent%06d", i)))) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.03 {
		t.Errorf("false-positive rate = %.3f, want ~0.01 at 10 bits/key", rate)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	b := newBloom(100)
	for i := 0; i < 100; i++ {
		b.add(bloomHash([]byte(fmt.Sprintf("k%d", i))))
	}
	b2, err := unmarshalBloom(b.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !b2.mayContain(bloomHash([]byte(fmt.Sprintf("k%d", i)))) {
			t.Fatalf("round-tripped filter lost k%d", i)
		}
	}
	// Nil and corrupt inputs.
	if f, err := unmarshalBloom(nil); err != nil || f != nil {
		t.Error("nil buffer must yield nil filter")
	}
	if _, err := unmarshalBloom([]byte{0}); err == nil {
		t.Error("k=0 filter accepted")
	}
	// A nil filter never excludes.
	var nilFilter *bloom
	if !nilFilter.mayContain(bloomHash([]byte("x"))) {
		t.Error("nil filter must not exclude")
	}
}

// Property: no false negatives for arbitrary key sets.
func TestBloomProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		b := newBloom(len(keys))
		for _, k := range keys {
			b.add(bloomHash(k))
		}
		for _, k := range keys {
			if !b.mayContain(bloomHash(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The point of the filter: probing absent keys must cost (almost) no
// device reads once the data lives in SSTables.
func TestBloomSavesIO(t *testing.T) {
	b := bigZNSBackend(t)
	db := Open(b, testOpts())
	var at sim.Time
	for i := 0; i < 3000; i++ {
		at, _ = db.Put(at, key(i), make([]byte, 64))
	}
	at, _ = db.Flush(at)
	before := b.Counters().FlashReadPages
	misses := 2000
	for i := 0; i < misses; i++ {
		// Absent keys *inside* the stored key range, so the min/max range
		// check cannot exclude them — only the Bloom filter can.
		_, _, found, err := db.Get(at, []byte(fmt.Sprintf("key%08d-absent", i)))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatal("phantom key")
		}
	}
	reads := b.Counters().FlashReadPages - before
	// Without filters every miss would probe >= 1 table chunk (~4 pages of
	// 4K). With them, only range-misses-but-bloom-positives read: ~1%.
	if reads > uint64(misses) {
		t.Errorf("%d flash reads for %d absent-key probes; bloom filters not effective", reads, misses)
	}
}
