package workload

import (
	"testing"
	"testing/quick"

	"blockhead/internal/sim"
)

func TestDeterminism(t *testing.T) {
	a := NewUniform(NewSource(42), 1000)
	b := NewUniform(NewSource(42), 1000)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewUniform(NewSource(1), 50)
	counts := make([]int, 50)
	for i := 0; i < 50000; i++ {
		k := g.Next()
		if k < 0 || k >= 50 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("key %d never drawn in 50k samples", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipf(NewSource(2), 10000, 0.99)
	var low int
	for i := 0; i < 10000; i++ {
		k := g.Next()
		if k < 0 || k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 100 {
			low++
		}
	}
	// Zipfian: the hottest 1% of keys should draw far more than 1% of
	// accesses.
	if low < 2000 {
		t.Errorf("hottest 100 keys drew only %d/10000 accesses; not skewed", low)
	}
}

func TestHotCold(t *testing.T) {
	g := NewHotCold(NewSource(3), 1000, 0.1, 0.9)
	var hot int
	n := 100000
	for i := 0; i < n; i++ {
		k := g.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if g.IsHot(k) {
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("hot fraction = %v, want ~0.9", frac)
	}
}

func TestHotColdDegenerate(t *testing.T) {
	// hotFrac 1.0: everything is hot; must not panic on the cold branch.
	g := NewHotCold(NewSource(4), 100, 1.0, 0.5)
	for i := 0; i < 1000; i++ {
		if k := g.Next(); k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
	// Tiny hotFrac still keeps >= 1 hot key.
	g = NewHotCold(NewSource(5), 100, 0.0001, 0.5)
	if g.hotKeys != 1 {
		t.Errorf("hotKeys = %d, want 1", g.hotKeys)
	}
}

func TestPoissonRate(t *testing.T) {
	p := NewPoisson(NewSource(6), 1000) // 1000/s -> mean gap 1ms
	var now sim.Time
	n := 10000
	for i := 0; i < n; i++ {
		next := p.Next(now)
		if next <= now {
			t.Fatal("arrivals must advance time")
		}
		now = next
	}
	mean := float64(now) / float64(n)
	want := float64(sim.Millisecond)
	if mean < 0.9*want || mean > 1.1*want {
		t.Errorf("mean interarrival = %v ns, want ~%v", mean, want)
	}
}

func TestObjectGen(t *testing.T) {
	g := NewObjectGen(NewSource(8), 4, []sim.Time{sim.Millisecond, sim.Second})
	if g.Classes() != 2 {
		t.Errorf("Classes = %d", g.Classes())
	}
	seen := map[int]int{}
	now := sim.Time(1000)
	var prevID int64 = -1
	for i := 0; i < 1000; i++ {
		obj := g.Next(now)
		if obj.ID != prevID+1 {
			t.Fatal("IDs must be dense and increasing")
		}
		prevID = obj.ID
		if obj.Death <= now {
			t.Fatal("death must be after creation")
		}
		if obj.Pages != 4 {
			t.Errorf("Pages = %d", obj.Pages)
		}
		seen[obj.Class]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("class mix = %v, want both classes drawn", seen)
	}
}

func TestObjectGenPanicsWithoutClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty lifetime list")
		}
	}()
	NewObjectGen(NewSource(9), 1, nil)
}

func TestExpMeanPositive(t *testing.T) {
	s := NewSource(10)
	var sum sim.Time
	for i := 0; i < 10000; i++ {
		d := s.ExpMean(100 * sim.Microsecond)
		if d < 1 {
			t.Fatal("ExpMean must be >= 1")
		}
		sum += d
	}
	mean := float64(sum) / 10000
	if mean < 0.9*float64(100*sim.Microsecond) || mean > 1.1*float64(100*sim.Microsecond) {
		t.Errorf("ExpMean average = %v", mean)
	}
}

// Property: all generators stay in range for arbitrary seeds.
func TestKeyGenRangeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int64(nRaw)%1000 + 2
		src := NewSource(seed)
		gens := []interface{ Next() int64 }{
			NewUniform(src, n),
			NewZipf(src, n, 0.99),
			NewHotCold(src, n, 0.2, 0.8),
		}
		for _, g := range gens {
			for i := 0; i < 50; i++ {
				k := g.Next()
				if k < 0 || k >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
