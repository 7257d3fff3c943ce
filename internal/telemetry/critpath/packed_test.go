package critpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blockhead/internal/sim"
	"blockhead/internal/telemetry"
)

// refReservoir is the unpacked reservoir the packed one replaced: PathOf
// of every admitted record, under the same stride decimation.
type refReservoir struct {
	paths            []PathRec
	cap, stride, seq uint64
}

func (f *refReservoir) fold(rec *telemetry.Record) {
	if f.seq&(f.stride-1) == 0 {
		if uint64(len(f.paths)) == f.cap {
			keep := f.paths[:0]
			for i := 0; i < len(f.paths); i += 2 {
				keep = append(keep, f.paths[i])
			}
			f.paths, f.stride = keep, f.stride*2
		}
		if f.seq&(f.stride-1) == 0 && uint64(len(f.paths)) < f.cap {
			f.paths = append(f.paths, PathOf(rec))
		}
	}
	f.seq++
}

// pathShapes builds records of every shape the packing distinguishes.
// Totals are the sum of Path, as the sink's check makes them.
func pathShapes(rng *rand.Rand) []func() telemetry.Record {
	const big = sim.Time(1) << 32
	rec := func(path map[telemetry.Phase]sim.Time) telemetry.Record {
		r := telemetry.Record{Op: telemetry.OpKind(rng.Intn(telemetry.NumOps)), Tenant: telemetry.TenantID(rng.Intn(telemetry.MaxTenants))}
		for p, t := range path {
			r.Phases[p] = t
			r.Total += t
		}
		return r
	}
	// nPath fills the first n Path cells, each with ticks t.
	nPath := func(n int, t sim.Time) telemetry.Record {
		m := map[telemetry.Phase]sim.Time{}
		for p := 0; p < n; p++ {
			m[telemetry.Phase(p)] = t + sim.Time(p)
		}
		return rec(m)
	}
	return []func() telemetry.Record{
		// 1 cell.
		func() telemetry.Record {
			return rec(map[telemetry.Phase]sim.Time{telemetry.PhaseNANDRead: 60 * us})
		},
		// Exactly maxCells cells: 11 Path and one WaitBy.
		func() telemetry.Record {
			r := nPath(telemetry.NumPhases, 7*us)
			r.WaitBy[telemetry.WaitLUN][telemetry.BindProgram] = 3 * us
			return r
		},
		// maxCells+1 cells: 11 Path, one WaitBy, one Comp.
		func() telemetry.Record {
			r := nPath(telemetry.NumPhases, 7*us)
			r.WaitBy[telemetry.WaitChan][telemetry.BindXfer] = 2 * us
			r.Comp[telemetry.CompDevCopy][telemetry.PhaseNANDRead] = 5 * us
			return r
		},
		// The widest tick that packs, in a Path cell and a Comp cell.
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseGCStall: big - 1})
			r.Comp[telemetry.CompGCStall][telemetry.PhaseNANDErase] = big - 1
			return r
		},
		// The narrowest tick that does not, in a Comp cell only.
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseZoneReset: 4 * us})
			r.Comp[telemetry.CompZoneReset][telemetry.PhaseNANDErase] = big
			return r
		},
		// A Total that does not pack over cells that do.
		func() telemetry.Record {
			return rec(map[telemetry.Phase]sim.Time{telemetry.PhaseGCStall: big - 1, telemetry.PhaseNANDRead: 1})
		},
		// Every composite filled: one cell in each row, which packs, and
		// every cell of every row, which does not.
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseGCStall: 9 * us, telemetry.PhaseZoneReset: 8 * us, telemetry.PhaseDevCopy: 7 * us})
			for c := range r.Comp {
				r.Comp[c][telemetry.PhaseNANDProgram] = sim.Time(c+1) * us
			}
			return r
		},
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseGCStall: 9 * us})
			for c := range r.Comp {
				for q := range r.Comp[c] {
					r.Comp[c][q] = sim.Time(c*telemetry.NumPhases+q+1) * us
				}
			}
			return r
		},
		// Every wait bound: all 12 WaitBy cells under their 3 waits.
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseWPSerial: 40 * us, telemetry.PhaseChanWait: 40 * us, telemetry.PhaseLUNWait: 40 * us})
			for w := range r.WaitBy {
				for b := range r.WaitBy[w] {
					r.WaitBy[w][b] = sim.Time(w*telemetry.NumBinds+b+1) * us
				}
			}
			return r
		},
		// A tenant that does not fit a byte.
		func() telemetry.Record {
			r := rec(map[telemetry.Phase]sim.Time{telemetry.PhaseNANDRead: 60 * us})
			r.Tenant = 300
			return r
		},
		// A random mix: 1 to 16 random cells, ticks on either side of 2^32.
		func() telemetry.Record {
			r, p := rec(nil), PathRec{}
			for n := 1 + rng.Intn(16); n > 0; n-- {
				t := sim.Time(1 + rng.Intn(5000))
				if rng.Intn(20) == 0 {
					t += big - 2500
				}
				*cell(&p, rng.Intn(numSlots)) += t
			}
			r.Phases, r.WaitBy, r.Comp = p.Path, p.WaitBy, p.Comp
			for _, t := range p.Path {
				r.Total += t
			}
			return r
		},
	}
}

// checkSide checks the side list holds exactly the wide entries, in
// reservoir order.
func checkSide(t *testing.T, r *Recorder) {
	t.Helper()
	n := 0
	for i, k := range r.paths {
		if k.side < 0 {
			continue
		}
		if int(k.side) != n {
			t.Fatalf("reservoir entry %d names side entry %d, want %d", i, k.side, n)
		}
		n++
	}
	if n != len(r.side) {
		t.Fatalf("side list holds %d paths, the reservoir names %d", len(r.side), n)
	}
}

// TestPackedPathsMatchReference drives a packed recorder and the unpacked
// reference through the same records and Drains: every shape that packs,
// every shape that does not, and a random mix. The expanded sample, the
// stride and every prediction must be the reference's.
func TestPackedPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := pathShapes(rng)
	rec := New(Options{SampleCap: 64})
	ref := &refReservoir{cap: 64, stride: 1}
	wide := 0
	for round, n := range []int{1, 63, 64, 65, 300, 1000, 5000} {
		for i := 0; i < n; i++ {
			// Shapes cycle in runs, so decimation drops some of each.
			r := shapes[(i/3+round)%len(shapes)]()
			rec.Fold(&r)
			ref.fold(&r)
			checkSide(t, rec)
		}
		wide = max(wide, len(rec.side))
		got := rec.Drain()
		if got.Stride != ref.stride {
			t.Fatalf("round %d: stride %d, want %d", round, got.Stride, ref.stride)
		}
		if !reflect.DeepEqual(got.Paths, ref.paths) {
			for i := range min(len(got.Paths), len(ref.paths)) {
				if got.Paths[i] != ref.paths[i] {
					t.Fatalf("round %d: path %d of %d\n got %+v\nwant %+v", round, i, len(ref.paths), got.Paths[i], ref.paths[i])
				}
			}
			t.Fatalf("round %d: %d paths, want %d", round, len(got.Paths), len(ref.paths))
		}
		want := got
		want.Paths = ref.paths
		for _, sc := range append(Canonical(), MustScenario("gc_stall:0.5,nand_erase:2,lun_wait:0")) {
			for _, opts := range []PredictOpts{{}, {ErasesAreResets: true}} {
				if g, w := got.Predict(sc, opts), want.Predict(sc, opts); !reflect.DeepEqual(g, w) {
					t.Fatalf("round %d: %s %+v predicts\n %+v\nwant %+v", round, sc.Name, opts, g, w)
				}
			}
		}
		if len(rec.paths) != 0 || len(rec.side) != 0 || rec.stride != 1 || rec.seq != 0 {
			t.Fatalf("round %d: Drain left %d paths, %d side paths, stride %d, seq %d",
				round, len(rec.paths), len(rec.side), rec.stride, rec.seq)
		}
		ref.paths, ref.stride, ref.seq = nil, 1, 0
	}
	if wide < 2 {
		t.Fatalf("at most %d wide paths held at once: the side list's remapping goes untested", wide)
	}
}

// TestPackRoundTrip packs each shape alone and checks the two ways out:
// packed paths expand to themselves, and exactly the paths that break a
// limit of the packing go to the side list.
func TestPackRoundTrip(t *testing.T) {
	for i, shape := range pathShapes(rand.New(rand.NewSource(2))) {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			r := shape()
			p := PathOf(&r)
			cells, fit := 0, fits(p.Total) && p.Tenant >= 0 && p.Tenant < 256
			for s := 0; s < numSlots; s++ {
				if c := *cell(&p, s); c != 0 {
					cells++
					fit = fit && fits(c)
				}
			}
			fit = fit && cells <= maxCells
			var k packed
			if got := k.pack(&p); got != fit {
				t.Fatalf("pack = %v for %d cells, want %v", got, cells, fit)
			}
			if fit && k.unpack() != p {
				t.Fatalf("unpack\n got %+v\nwant %+v", k.unpack(), p)
			}
		})
	}
}
