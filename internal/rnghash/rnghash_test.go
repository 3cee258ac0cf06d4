package rnghash

import (
	"testing"
	"testing/quick"

	"efl/internal/rng"
)

func TestHashDeterministicPerRII(t *testing.T) {
	h := New(512, 0xdeadbeef)
	for addr := uint64(0); addr < 4096; addr++ {
		a, b := h.Set(addr), h.Set(addr)
		if a != b {
			t.Fatalf("address %#x mapped to %d then %d under the same RII", addr, a, b)
		}
	}
}

func TestHashRange(t *testing.T) {
	src := rng.New(1)
	for _, sets := range []int{1, 2, 64, 256, 512} {
		h := New(sets, NewRII(src))
		for i := 0; i < 2000; i++ {
			addr := src.Uint64()
			if s := h.Set(addr); s < 0 || s >= sets {
				t.Fatalf("set %d out of range for %d sets", s, sets)
			}
		}
	}
}

func TestHashPanicsOnBadSets(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad, 1)
		}()
	}
}

// TestUniformityAcrossRIIs verifies the DATE'13 property the paper relies
// on: "given a memory address and a set of RIIs, the probability of mapping
// such address to any particular cache set is the same" (§3.2).
func TestUniformityAcrossRIIs(t *testing.T) {
	const sets = 64
	const riis = 64 * 1024
	src := rng.New(7)
	// A handful of structurally different addresses, including
	// pathological ones (0, all-ones, strided).
	addrs := []uint64{0, 1, 0xffffffffffffffff, 0x1000, 0x1010, 0xabcdef0123456789}
	for _, addr := range addrs {
		counts := make([]int, sets)
		for i := 0; i < riis; i++ {
			h := New(sets, NewRII(src))
			counts[h.Set(addr)]++
		}
		x2 := chiSquare(counts, riis)
		// 63 dof, 99.9% critical value ≈ 103.4
		if x2 > 103.4 {
			t.Errorf("address %#x not uniform across RIIs: chi2=%v", addr, x2)
		}
	}
}

// TestUniformityAcrossAddresses verifies that within a single RII a set of
// consecutive line addresses (the common case: a program's footprint)
// spreads evenly over the sets.
func TestUniformityAcrossAddresses(t *testing.T) {
	const sets = 512
	const addrs = 512 * 256
	src := rng.New(9)
	// A single chi-square draw legitimately lands in the far tail ~0.1% of
	// the time, so require a majority of trials below the 99.9% critical
	// value (≈619 for 511 dof) rather than all of them.
	exceed := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		h := New(sets, NewRII(src))
		counts := make([]int, sets)
		for a := uint64(0); a < addrs; a++ {
			counts[h.Set(a)]++
		}
		if chiSquare(counts, addrs) > 619 {
			exceed++
		}
	}
	if exceed >= 2 {
		t.Errorf("%d of %d trials exceeded the 99.9%% chi-square critical value", exceed, trials)
	}
}

// TestDifferentRIIsRemap checks that changing the RII actually re-maps
// addresses (the mechanism behind per-run placement randomisation).
func TestDifferentRIIsRemap(t *testing.T) {
	const sets = 512
	h1 := New(sets, 1)
	h2 := New(sets, 2)
	same := 0
	const n = 4096
	for a := uint64(0); a < n; a++ {
		if h1.Set(a) == h2.Set(a) {
			same++
		}
	}
	// Expected collisions ≈ n/sets = 8; allow generous slack.
	if same > n/sets*8 {
		t.Fatalf("RIIs 1 and 2 agree on %d of %d addresses; remapping is too weak", same, n)
	}
}

// TestPairSeparation: two addresses that collide under one RII must not
// systematically collide under others (no pathological conflict classes).
func TestPairSeparation(t *testing.T) {
	const sets = 64
	src := rng.New(11)
	// Find a colliding pair under RII 1.
	base := New(sets, 1)
	var a, b uint64
	found := false
	for x := uint64(1); x < 10000 && !found; x++ {
		if base.Set(0) == base.Set(x) {
			a, b, found = 0, x, true
		}
	}
	if !found {
		t.Fatal("no colliding pair found (suspicious for 64 sets)")
	}
	collisions := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		h := New(sets, NewRII(src))
		if h.Set(a) == h.Set(b) {
			collisions++
		}
	}
	frac := float64(collisions) / trials
	want := 1.0 / sets
	if frac > want*2 || frac < want/2 {
		t.Fatalf("pair collision rate %v, want ~%v", frac, want)
	}
}

func TestModulo(t *testing.T) {
	m := NewModulo(512)
	if m.NumSets() != 512 {
		t.Fatalf("NumSets = %d", m.NumSets())
	}
	for _, tc := range []struct {
		addr uint64
		set  int
	}{{0, 0}, {1, 1}, {511, 511}, {512, 0}, {513, 1}, {1024 + 5, 5}} {
		if got := m.Set(tc.addr); got != tc.set {
			t.Errorf("Modulo.Set(%d) = %d, want %d", tc.addr, got, tc.set)
		}
	}
}

func TestModuloPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModulo(12) did not panic")
		}
	}()
	NewModulo(12)
}

func TestHashSingleSet(t *testing.T) {
	h := New(1, 99)
	err := quick.Check(func(addr uint64) bool { return h.Set(addr) == 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func chiSquare(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - exp
		x2 += d * d / exp
	}
	return x2
}

// TestSetZeroAlloc guards the hash_set row of BENCH_SIM.json: the
// placement hash allocates nothing.
func TestSetZeroAlloc(t *testing.T) {
	h := New(512, 12345)
	var addr uint64
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += h.Set(addr)
		addr += 31
	})
	if allocs != 0 {
		t.Fatalf("Set allocates %.2f per call", allocs)
	}
	if sink == 0 {
		t.Fatal("hash mapped every address to set 0")
	}
}

func BenchmarkHashSet(b *testing.B) {
	h := New(512, 12345)
	for i := 0; i < b.N; i++ {
		_ = h.Set(uint64(i))
	}
}
