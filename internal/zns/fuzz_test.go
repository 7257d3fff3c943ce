package zns

import (
	"errors"
	"io"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// wantActivate derives, from the pre-op state and the current open/active
// counts, the error the spec requires from an operation that needs the zone
// Open (explicit Open, Write, Append).
func wantActivate(cfg Config, pre ZoneState, open, active int) error {
	switch pre {
	case Open:
		return nil
	case Closed:
		if cfg.MaxOpen != 0 && open >= cfg.MaxOpen {
			return ErrTooManyOpen
		}
		return nil
	case Empty:
		if cfg.MaxActive != 0 && active >= cfg.MaxActive {
			return ErrTooManyActive
		}
		if cfg.MaxOpen != 0 && open >= cfg.MaxOpen {
			return ErrTooManyOpen
		}
		return nil
	case Offline:
		return ErrOffline
	default:
		return ErrBadState
	}
}

// FuzzZoneStateMachine drives random zone-management sequences against the
// device with the auditor attached. Every returned error must match the one
// derived from the ZNS spec for the observed pre-op state, and the auditor
// must see zero violations — the state machine may never take an illegal
// path no matter the op order.
func FuzzZoneStateMachine(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{4, 4, 4, 4, 4, 0, 0, 0, 2, 3, 1})
	f.Add([]byte{20, 41, 62, 83, 104, 125, 146, 167, 188, 209, 230, 251})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := testCfg() // MaxActive 4, MaxOpen 2, unlimited endurance
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := telemetry.NewProbe()
		probe.FlightRec.DumpTo = io.Discard
		d.SetProbe(probe)
		aud := d.AttachAuditor()
		check := func(op string, z int, pre ZoneState, got, want error) {
			t.Helper()
			if want == nil {
				if got != nil {
					t.Fatalf("%s zone %d (pre %v): unexpected error %v", op, z, pre, got)
				}
				return
			}
			if !errors.Is(got, want) {
				t.Fatalf("%s zone %d (pre %v): error %v, want %v", op, z, pre, got, want)
			}
		}
		var at sim.Time
		for _, b := range ops {
			z := int(b/5) % d.NumZones()
			pre := d.State(z)
			open, active := d.OpenZones(), d.ActiveZones()
			switch b % 5 {
			case 0:
				check("open", z, pre, d.Open(at, z), wantActivate(cfg, pre, open, active))
			case 1:
				var want error
				if pre != Open {
					want = ErrBadState
				}
				check("close", z, pre, d.Close(at, z), want)
			case 2:
				var want error
				if pre == Full || pre == ReadOnly || pre == Offline {
					want = ErrBadState
				}
				check("finish", z, pre, d.Finish(at, z), want)
			case 3:
				var want error
				switch pre {
				case Offline:
					want = ErrOffline
				case ReadOnly:
					want = ErrBadState
				}
				done, err := d.Reset(at, z)
				check("reset", z, pre, err, want)
				if err == nil {
					at = done
				}
			case 4:
				want := wantActivate(cfg, pre, open, active)
				if pre == Full {
					want = ErrZoneFull
				}
				_, done, err := d.Append(at, z, nil)
				check("append", z, pre, err, want)
				if err == nil {
					at = done
				}
			}
			// With unlimited endurance the fuzz can never degrade a zone.
			if s := d.State(z); s == ReadOnly || s == Offline {
				t.Fatalf("zone %d degraded to %v without wear", z, s)
			}
		}
		if v := aud.Violations(); v != 0 {
			t.Fatalf("auditor saw %d violations over %d ops", v, len(ops))
		}
		if err := aud.Check(); err != nil {
			t.Fatal(err)
		}
	})
}
