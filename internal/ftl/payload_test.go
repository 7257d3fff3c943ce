package ftl

import (
	"errors"
	"slices"
	"testing"

	"blockhead/internal/sim"
)

// The StoreData payload store, as the hosts above it (zkv's conventional
// backend, the examples) see it through WritePage, ReadPage, Trim and
// Recover. These semantics predate the slice-backed store and must not
// move with it.
func TestPayloadStore(t *testing.T) {
	read := func(t *testing.T, d *Device, at sim.Time, lpn int64) string {
		t.Helper()
		_, got, err := d.ReadPage(at, lpn)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		return string(got)
	}
	write := func(t *testing.T, d *Device, at sim.Time, lpn int64, data []byte) sim.Time {
		t.Helper()
		done, err := d.WritePage(at, lpn, data)
		if err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		return done
	}
	stored := func(trim bool) *Device {
		cfg := defaultCfg()
		cfg.StoreData, cfg.TrimSupported = true, trim
		return mustNew(t, cfg)
	}

	t.Run("write, overwrite, neighbours", func(t *testing.T) {
		d := stored(true)
		last := d.CapacityPages() - 1
		at := write(t, d, 0, 0, []byte("first"))
		at = write(t, d, at, last, []byte("last"))
		at = write(t, d, at, 5, []byte("v1"))
		at = write(t, d, at, 5, []byte("v2"))
		at = write(t, d, at, 6, nil) // timing-only: no payload
		if a, b, c, e := read(t, d, at, 0), read(t, d, at, last), read(t, d, at, 5), read(t, d, at, 6); a != "first" || b != "last" || c != "v2" || e != "" {
			t.Errorf("payloads = %q %q %q %q", a, b, c, e)
		}
		// A timing-only overwrite leaves the stored payload in place.
		at = write(t, d, at, 5, nil)
		if got := read(t, d, at, 5); got != "v2" {
			t.Errorf("after nil overwrite: %q", got)
		}
	})

	t.Run("trim drops payloads in range only", func(t *testing.T) {
		d := stored(true)
		var at sim.Time
		for lpn := int64(10); lpn < 16; lpn++ {
			at = write(t, d, at, lpn, []byte{byte('a' + lpn - 10)})
		}
		if err := d.Trim(at, 11, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.Trim(at, 12, 0); err != nil { // empty range: a no-op
			t.Fatal(err)
		}
		for lpn := int64(11); lpn < 14; lpn++ { // remap without a payload
			at = write(t, d, at, lpn, nil)
		}
		var got string
		for lpn := int64(10); lpn < 16; lpn++ {
			got += read(t, d, at, lpn) + ","
		}
		if got != "a,,,,e,f," {
			t.Errorf("after trim of [11,14): %q", got)
		}
	})

	t.Run("trim without TRIM support keeps the stale payload", func(t *testing.T) {
		d := stored(false)
		at := write(t, d, 0, 7, []byte("stale"))
		if err := d.Trim(at, 7, 1); err != nil {
			t.Fatal(err)
		}
		if got := read(t, d, at, 7); got != "stale" {
			t.Errorf("after unsupported trim: %q", got)
		}
	})

	t.Run("recover clears every payload", func(t *testing.T) {
		cfg := defaultCfg()
		cfg.StoreData, cfg.Recovery = true, true
		d := mustNew(t, cfg)
		var at sim.Time
		for lpn := int64(0); lpn < 40; lpn++ {
			at = write(t, d, at, lpn, []byte("volatile"))
		}
		if _, err := d.Recover(at); err != nil {
			t.Fatal(err)
		}
		for lpn := int64(0); lpn < 40; lpn++ {
			if got := read(t, d, at, lpn); got != "" {
				t.Fatalf("lpn %d survived the crash with payload %q", lpn, got)
			}
		}
		at = write(t, d, at, 3, []byte("after"))
		if got := read(t, d, at, 3); got != "after" {
			t.Errorf("write after recovery: %q", got)
		}
	})

	t.Run("StoreData off allocates no store", func(t *testing.T) {
		d := mustNew(t, defaultCfg())
		at := write(t, d, 0, 1, []byte("ignored"))
		if got := read(t, d, at, 1); got != "" || d.data != nil {
			t.Errorf("payload %q, store %v", got, d.data != nil)
		}
		if err := d.Trim(at, 0, 4); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("DropPayload clears the range's payloads and nothing else", func(t *testing.T) {
		// Twin devices take the same writes; only b drops [11,14). The drop
		// is bookkeeping: mapping, counters, flash and time must not see it.
		a, b := stored(false), stored(false)
		var at sim.Time
		for lpn := int64(10); lpn < 16; lpn++ {
			payload := []byte{byte('a' + lpn - 10)}
			write(t, b, at, lpn, payload)
			at = write(t, a, at, lpn, payload)
		}
		if err := b.DropPayload(11, 3); err != nil {
			t.Fatal(err)
		}
		if err := b.DropPayload(12, 0); err != nil { // empty range: a no-op
			t.Fatal(err)
		}
		if !slices.Equal(a.gc.L2P, b.gc.L2P) || *a.Counters() != *b.Counters() || a.Flash().Counts() != b.Flash().Counts() {
			t.Errorf("drop moved the device: counters %+v / %+v, flash %+v / %+v",
				*a.Counters(), *b.Counters(), a.Flash().Counts(), b.Flash().Counts())
		}
		if da, db := write(t, a, at, 20, nil), write(t, b, at, 20, nil); da != db {
			t.Errorf("next write completes at %v after the drop, %v without", db, da)
		}
		var got, kept string
		for lpn := int64(10); lpn < 16; lpn++ {
			got += read(t, b, at, lpn) + ","
			kept += read(t, a, at, lpn) + ","
		}
		if got != "a,,,,e,f," || kept != "a,b,c,d,e,f," {
			t.Errorf("after drop of [11,14): %q (twin %q)", got, kept)
		}
		at = write(t, b, at, 12, []byte("again"))
		if got := read(t, b, at, 12); got != "again" {
			t.Errorf("rewrite after drop: %q", got)
		}
		last := b.CapacityPages() - 1
		for _, r := range [][2]int64{{-1, 1}, {last, 2}, {0, -1}, {b.CapacityPages(), 1}} {
			if err := b.DropPayload(r[0], r[1]); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("DropPayload(%d, %d) = %v, want ErrOutOfRange", r[0], r[1], err)
			}
		}
		off := mustNew(t, defaultCfg())
		at = write(t, off, 0, 1, []byte("ignored"))
		if err := off.DropPayload(0, 4); err != nil || off.data != nil {
			t.Errorf("without StoreData: %v, store %v", err, off.data != nil)
		}
	})
}
