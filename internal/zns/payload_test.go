package zns

import (
	"errors"
	"testing"

	"blockhead/internal/sim"
)

// The StoreData payload store, as the hosts above it (zkv's ZNS backend,
// hostftl, the examples) see it through Append, Read, Reset, SimpleCopy and
// Recover. These semantics predate the slice-backed store and must not move
// with it.
func TestPayloadStore(t *testing.T) {
	cfg := testCfg()
	cfg.MaxActive, cfg.MaxOpen = 0, 0 // no zone limits: the store is the subject
	appendPages := func(t *testing.T, d *Device, at sim.Time, z int, payloads ...string) ([]int64, sim.Time) {
		t.Helper()
		var lbas []int64
		for _, p := range payloads {
			var data []byte
			if p != "" {
				data = []byte(p)
			}
			lba, done, err := d.Append(at, z, data)
			if err != nil {
				t.Fatalf("append to zone %d: %v", z, err)
			}
			lbas, at = append(lbas, lba), done
		}
		return lbas, at
	}
	readAll := func(t *testing.T, d *Device, at sim.Time, z int) string {
		t.Helper()
		var got string
		for o := int64(0); o < d.WP(z); o++ {
			_, data, err := d.Read(at, d.LBA(z, o))
			if err != nil {
				t.Fatalf("read zone %d+%d: %v", z, o, err)
			}
			got += string(data) + ","
		}
		return got
	}

	t.Run("reset clears the zone up to its write pointer, not its neighbours", func(t *testing.T) {
		d := mustNew(t, cfg)
		_, at := appendPages(t, d, 0, 0, "z0")
		_, at = appendPages(t, d, at, 1, "a", "", "c")
		_, at = appendPages(t, d, at, 2, "z2")
		if got := readAll(t, d, at, 1); got != "a,,c," {
			t.Fatalf("before reset: %q", got)
		}
		at, err := d.Reset(at, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, at = appendPages(t, d, at, 1, "", "", "", "") // rewrite without payloads
		if got := readAll(t, d, at, 1); got != ",,,," {
			t.Errorf("payloads survived the reset: %q", got)
		}
		if a, b := readAll(t, d, at, 0), readAll(t, d, at, 2); a != "z0," || b != "z2," {
			t.Errorf("neighbours after reset: %q %q", a, b)
		}
		// The last zone's last page is the store's last index.
		last := d.NumZones() - 1
		for o := int64(0); o < d.ZonePages(); o++ {
			_, at = appendPages(t, d, at, last, "x")
		}
		if _, data, err := d.Read(at, d.LBA(last, d.ZonePages()-1)); err != nil || string(data) != "x" {
			t.Errorf("last page: %q %v", data, err)
		}
	})

	t.Run("simple copy carries payloads; a page without one stays without", func(t *testing.T) {
		d := mustNew(t, cfg)
		srcs, at := appendPages(t, d, 0, 0, "a", "", "c")
		if _, _, err := d.SimpleCopy(at, srcs, 1); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, d, at, 1); got != "a,,c," {
			t.Errorf("destination: %q", got)
		}
		if got := readAll(t, d, at, 0); got != "a,,c," {
			t.Errorf("source after copy: %q", got)
		}
	})

	t.Run("recover clears every payload", func(t *testing.T) {
		cfg := cfg
		cfg.Recovery = true
		d := mustNew(t, cfg)
		_, at := appendPages(t, d, 0, 0, "a", "b")
		_, at = appendPages(t, d, at, 3, "c")
		if _, err := d.Recover(at); err != nil {
			t.Fatal(err)
		}
		if a, b := readAll(t, d, at, 0), readAll(t, d, at, 3); a != ",," || b != "," {
			t.Errorf("payloads survived the crash: %q %q", a, b)
		}
	})

	t.Run("StoreData off allocates no store", func(t *testing.T) {
		cfg := cfg
		cfg.StoreData = false
		d := mustNew(t, cfg)
		srcs, at := appendPages(t, d, 0, 0, "ignored")
		if _, _, err := d.SimpleCopy(at, srcs, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Reset(at, 0); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, d, at, 1); got != "," || d.data != nil {
			t.Errorf("payload %q, store %v", got, d.data != nil)
		}
	})

	t.Run("DropPayload clears the range's payloads and nothing else", func(t *testing.T) {
		// Twin devices take the same appends; only b drops zone 1's pages
		// 1..3. The drop is bookkeeping: write pointers, zone states,
		// counters, flash and time must not see it.
		a, b := mustNew(t, cfg), mustNew(t, cfg)
		var at sim.Time
		for _, d := range []*Device{a, b} {
			_, at = appendPages(t, d, 0, 1, "a", "b", "c", "d", "e")
			_, at = appendPages(t, d, at, 2, "z2")
		}
		if err := b.DropPayload(b.LBA(1, 1), 3); err != nil {
			t.Fatal(err)
		}
		if err := b.DropPayload(b.LBA(2, 0), 0); err != nil { // empty range: a no-op
			t.Fatal(err)
		}
		for z := 0; z < a.NumZones(); z++ {
			if a.WP(z) != b.WP(z) || a.State(z) != b.State(z) {
				t.Errorf("zone %d: wp %d state %v after the drop, wp %d state %v without", z, b.WP(z), b.State(z), a.WP(z), a.State(z))
			}
		}
		if *a.Counters() != *b.Counters() || a.Flash().Counts() != b.Flash().Counts() {
			t.Errorf("drop moved the device: counters %+v / %+v, flash %+v / %+v",
				*a.Counters(), *b.Counters(), a.Flash().Counts(), b.Flash().Counts())
		}
		la, da, errA := a.Append(at, 1, nil)
		lb, db, errB := b.Append(at, 1, nil)
		if la != lb || da != db || errA != nil || errB != nil {
			t.Errorf("next append: lba %d at %v after the drop, lba %d at %v without (%v, %v)", lb, db, la, da, errB, errA)
		}
		at = max(da, db)
		if got, kept := readAll(t, b, at, 1), readAll(t, a, at, 1); got != "a,,,,e,," || kept != "a,b,c,d,e,," {
			t.Errorf("after drop of pages 1..3: %q (twin %q)", got, kept)
		}
		if got := readAll(t, b, at, 2); got != "z2," {
			t.Errorf("neighbour zone after drop: %q", got)
		}
		at, err := b.Reset(at, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, at = appendPages(t, b, at, 1, "x", "again")
		if got := readAll(t, b, at, 1); got != "x,again," {
			t.Errorf("rewrite after drop: %q", got)
		}
		total := int64(b.NumZones()) * b.ZonePages()
		for _, r := range [][2]int64{{-1, 1}, {total - 1, 2}, {0, -1}, {total, 1}} {
			if err := b.DropPayload(r[0], r[1]); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("DropPayload(%d, %d) = %v, want ErrOutOfRange", r[0], r[1], err)
			}
		}
		cfg := cfg
		cfg.StoreData = false
		off := mustNew(t, cfg)
		appendPages(t, off, 0, 0, "ignored")
		if err := off.DropPayload(0, 1); err != nil || off.data != nil {
			t.Errorf("without StoreData: %v, store %v", err, off.data != nil)
		}
	})
}
