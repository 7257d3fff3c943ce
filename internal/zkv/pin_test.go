package zkv

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"blockhead/internal/sim"
)

// pinRecorder keeps a weak pointer to the first byte of every blob stored
// through it, and which handles are still live, so a test can ask the
// garbage collector which blobs the device still holds.
type pinRecorder struct {
	Backend
	blobs map[TableHandle]weak.Pointer[byte]
	live  map[TableHandle]bool
}

func newPinRecorder(b Backend) *pinRecorder {
	return &pinRecorder{Backend: b, blobs: map[TableHandle]weak.Pointer[byte]{}, live: map[TableHandle]bool{}}
}

func (r *pinRecorder) track(h TableHandle, blob []byte) {
	r.blobs[h] = weak.Make(&blob[0])
	r.live[h] = true
}

func (r *pinRecorder) WriteTable(at sim.Time, blob []byte, level int) (TableHandle, sim.Time, error) {
	h, done, err := r.Backend.WriteTable(at, blob, level)
	if err == nil {
		r.track(h, blob)
	}
	return h, done, err
}

func (r *pinRecorder) Delete(at sim.Time, h TableHandle) error {
	err := r.Backend.Delete(at, h)
	if err == nil {
		delete(r.live, h)
	}
	return err
}

// check collects garbage and fails unless exactly the live tables' blobs
// survive; it returns how many tables were deleted.
func (r *pinRecorder) check(t *testing.T) (deleted int) {
	t.Helper()
	runtime.GC()
	for h, p := range r.blobs {
		switch alive := p.Value() != nil; {
		case r.live[h] && !alive:
			t.Errorf("live table %d: its blob was collected", h)
		case !r.live[h] && alive:
			t.Errorf("deleted table %d still pins its blob", h)
		}
		if !r.live[h] {
			deleted++
		}
	}
	return deleted
}

// A deleted table's blob is garbage: no device payload slot keeps it, on a
// conventional device with or without TRIM (where the stale pages stay
// mapped) and on a zoned device (where they stay in the zone until it is
// reset), including after zone reclamation moved the table.
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
			rec := newPinRecorder(c.backend(t))
			db := Open(rec, testOpts())
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
			if deleted := rec.check(t); deleted == 0 {
				t.Fatal("churn deleted no table")
			}
			for k := 0; k < 1500; k += 37 { // the live tables still read back
				if _, v, found, err := db.Get(at, key(k)); err != nil || found != (latest[k] != "") || string(v) != latest[k] {
					t.Fatalf("get %d = %q %v %v, want %q", k, v, found, err, latest[k])
				}
			}
		})
	}

	t.Run("zns, relocated before deletion", func(t *testing.T) {
		blob := patterned(200, 9)
		zoned, h := relocatedTable(t, blob)
		rec := newPinRecorder(zoned)
		rec.track(h, blob)
		rec.check(t)
		if err := rec.Delete(0, h); err != nil {
			t.Fatal(err)
		}
		rec.check(t)
	})
}
