package cache

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"efl/internal/rng"
)

func trCfg(name string, size, ways, lineB int) Config {
	return Config{Name: name, SizeBytes: size, Ways: ways, LineBytes: lineB, Policy: TimeRandomised}
}

func tdCfg(name string, size, ways, lineB int) Config {
	return Config{Name: name, SizeBytes: size, Ways: ways, LineBytes: lineB, Policy: TimeDeterministic}
}

// l1 returns the paper's IL1/DL1 geometry: 4KB, 4-way, 16B lines.
func l1(p Policy) Config {
	return Config{Name: "L1", SizeBytes: 4096, Ways: 4, LineBytes: 16, Policy: p}
}

// llc returns the paper's LLC geometry: 64KB, 8-way, 16B lines (512 sets).
func llc(p Policy) Config {
	return Config{Name: "LLC", SizeBytes: 64 * 1024, Ways: 8, LineBytes: 16, Policy: p}
}

func TestConfigGeometry(t *testing.T) {
	if s := l1(TimeRandomised).Sets(); s != 64 {
		t.Errorf("L1 sets = %d, want 64", s)
	}
	if s := llc(TimeRandomised).Sets(); s != 512 {
		t.Errorf("LLC sets = %d, want 512", s)
	}
}

func TestConfigValidateCases(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{l1(TimeRandomised), true},
		{llc(TimeDeterministic), true},
		{Config{Name: "zero"}, false},
		{trCfg("ways33", 33*64*16, 33, 16), false},
		{trCfg("sets3", 3*4*16, 4, 16), false},   // 3 sets
		{trCfg("line12", 64*4*12, 4, 12), false}, // non-pow2 line
		{trCfg("indivisible", 4097, 4, 16), false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate err=%v, ok want %v", tc.cfg.Name, err, tc.ok)
		}
	}
}

func TestFullMask(t *testing.T) {
	if FullMask(4) != 0xf {
		t.Errorf("FullMask(4) = %#x", FullMask(4))
	}
	if FullMask(8).Count() != 8 {
		t.Errorf("FullMask(8).Count() = %d", FullMask(8).Count())
	}
	if MaskRange(2, 3) != 0b11100 {
		t.Errorf("MaskRange(2,3) = %#b", MaskRange(2, 3))
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(1))
	full := FullMask(4)
	r := c.Access(0x1000, false, full, -1)
	if r.Hit {
		t.Fatal("first access hit an empty cache")
	}
	r = c.Access(0x1000, false, full, -1)
	if !r.Hit {
		t.Fatal("second access to same address missed")
	}
	// Same line, different byte.
	if r = c.Access(0x100f, false, full, -1); !r.Hit {
		t.Fatal("access to same 16B line missed")
	}
	// Next line.
	if r = c.Access(0x1010, false, full, -1); r.Hit {
		t.Fatal("access to next line hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	// Tiny fully-associative TR cache: 2 lines total.
	c := New(trCfg("tiny", 32, 2, 16), rng.New(2))
	full := FullMask(2)
	c.Access(0x00, true, full, -1) // dirty
	c.Access(0x10, true, full, -1) // dirty
	// Third distinct line must evict a dirty victim.
	r := c.Access(0x20, false, full, -1)
	if r.Hit || !r.Evicted || !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestReadEvictionNotDirty(t *testing.T) {
	c := New(trCfg("tiny", 32, 2, 16), rng.New(3))
	full := FullMask(2)
	c.Access(0x00, false, full, -1)
	c.Access(0x10, false, full, -1)
	r := c.Access(0x20, false, full, -1)
	if !r.Evicted || r.EvictedDirty {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
}

func TestHitMarksDirty(t *testing.T) {
	c := New(trCfg("tiny", 32, 2, 16), rng.New(4))
	full := FullMask(2)
	c.Access(0x00, false, full, -1)       // clean fill
	c.Access(0x00, true, full, -1)        // write hit -> dirty
	c.Access(0x10, false, full, -1)       // fill second way
	r := c.Access(0x20, false, full, -1)  // evicts one of the two
	r2 := c.Access(0x30, false, full, -1) // evicts the other
	dirtyEvictions := 0
	for _, rr := range []AccessResult{r, r2} {
		if rr.EvictedDirty {
			dirtyEvictions++
		}
	}
	if dirtyEvictions != 1 {
		t.Fatalf("want exactly one dirty eviction, got %d", dirtyEvictions)
	}
}

// TestEoMHitsAreStateless is the property at the heart of the paper
// (§3.3): in an Evict-on-Miss TR cache, hits change nothing, so a
// hit-heavy co-runner cannot interfere. We verify that an arbitrary number
// of hits never displaces any resident line.
func TestEoMHitsAreStateless(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(5))
	full := FullMask(4)
	// Fill a few lines.
	addrs := []uint64{0x0, 0x100, 0x200, 0x300, 0x400, 0x500}
	for _, a := range addrs {
		c.Access(a, false, full, -1)
	}
	before := c.ValidLines()
	for i := 0; i < 10000; i++ {
		r := c.Access(addrs[i%len(addrs)], false, full, -1)
		if !r.Hit {
			t.Fatalf("iteration %d: resident line missed — hits must not disturb state", i)
		}
	}
	if c.ValidLines() != before {
		t.Fatalf("hit stream changed the number of valid lines: %d -> %d", before, c.ValidLines())
	}
}

// TestLRUReplacement verifies the TD policy evicts the least recently used
// way.
func TestLRUReplacement(t *testing.T) {
	// Direct control: 1 set, 2 ways (fully assoc, modulo placement).
	c := New(tdCfg("lru", 32, 2, 16), rng.New(6))
	full := FullMask(2)
	c.Access(0x00, false, full, -1) // A
	c.Access(0x10, false, full, -1) // B
	c.Access(0x00, false, full, -1) // touch A -> B is LRU
	r := c.Access(0x20, false, full, -1)
	if !r.Evicted || r.EvictedAddr != 0x10>>4 {
		t.Fatalf("want eviction of line 0x1 (B), got %+v", r)
	}
	// A must still hit.
	if rr := c.Access(0x00, false, full, -1); !rr.Hit {
		t.Fatal("A was evicted, LRU order broken")
	}
}

func TestTDModuloMapping(t *testing.T) {
	// In a TD cache, two addresses that differ only above the index bits
	// conflict deterministically; with 64-set 4-way L1, addresses 16B*64
	// apart share a set.
	c := New(l1(TimeDeterministic), rng.New(7))
	full := FullMask(4)
	stride := uint64(16 * 64)
	// Fill one set with 4 conflicting lines, then a 5th must evict.
	for i := uint64(0); i < 4; i++ {
		if r := c.Access(i*stride, false, full, -1); r.Evicted {
			t.Fatalf("premature eviction at %d", i)
		}
	}
	if r := c.Access(4*stride, false, full, -1); !r.Evicted {
		t.Fatal("5th conflicting line did not evict in a 4-way TD set")
	}
}

// TestRandomPlacementBreaksConflicts: the same 5-line conflict stream that
// guarantees an eviction in a TD cache only sometimes conflicts in a TR
// cache, and the conflict pattern changes across RIIs — the motivating
// property of TR caches (§3.2).
func TestRandomPlacementBreaksConflicts(t *testing.T) {
	stride := uint64(16 * 64) // one L1 index period: all lines share a TD set

	// TD: 5 strided lines land in the same 4-way set, guaranteeing an
	// eviction, every run.
	td := New(l1(TimeDeterministic), rng.New(8))
	full := FullMask(4)
	tdEvicted := false
	for i := uint64(0); i < 5; i++ {
		if r := td.Access(i*stride, false, full, -1); r.Evicted {
			tdEvicted = true
		}
	}
	if !tdEvicted {
		t.Fatal("TD cache did not evict on a 5-line same-set conflict stream")
	}

	// TR: random placement scatters the same 5 lines over 64 sets. An
	// EoM fill picks a uniformly random victim way (even when invalid
	// ways exist), so occasional valid-line displacement happens — but a
	// guaranteed conflict like the TD case must be rare (expected ~4%).
	src := rng.New(8)
	evictRuns := 0
	const runs = 300
	for run := 0; run < runs; run++ {
		c := New(l1(TimeRandomised), src.Fork())
		evicted := false
		for i := uint64(0); i < 5; i++ {
			if r := c.Access(i*stride, false, full, -1); r.Evicted {
				evicted = true
			}
		}
		if evicted {
			evictRuns++
		}
	}
	if evictRuns > runs/8 {
		t.Fatalf("random placement failed to break the conflict stream: %d/%d runs evicted", evictRuns, runs)
	}
}

func TestNewRunChangesMapping(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(9))
	full := FullMask(8)
	c.Access(0x1234, false, full, -1)
	if !c.Contains(0x1234) {
		t.Fatal("line not resident after fill")
	}
	if c.ValidLines() != 1 {
		t.Fatalf("valid lines = %d", c.ValidLines())
	}
	c.NewRun()
	if c.Contains(0x1234) {
		t.Fatal("NewRun did not flush contents")
	}
	if c.ValidLines() != 0 {
		t.Fatal("NewRun left valid lines")
	}
}

// TestCarryRewindsDraws pins SaveCarry/RestoreCarry: a run started from a
// restored carry draws the same RII and victims as the run after the save,
// and the armed tag-flip fault corrupts the same fills.
func TestCarryRewindsDraws(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(11))
	c.InjectTagFlip(2, 5)
	run := func() []AccessResult {
		c.NewRun()
		var out []AccessResult
		for a := uint64(0); a < 64<<10; a += 16 * 7 {
			out = append(out, c.Access(a, a%3 == 0, FullMask(4), -1))
		}
		return out
	}
	run() // advance the stream and the fill counter past their initial state
	k := c.SaveCarry()
	want := run()
	run()
	c.RestoreCarry(k)
	if got := run(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("a run from the restored carry diverged from the run after the save")
	}
}

func TestFlushCountsDirty(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(10))
	full := FullMask(4)
	c.Access(0x10, true, full, -1)
	c.Access(0x20, true, full, -1)
	c.Access(0x30, false, full, -1)
	if wb := c.Flush(); wb != 2 {
		t.Fatalf("Flush writebacks = %d, want 2", wb)
	}
}

// TestPartitionIsolation is the CP property (Paolieri ISCA'09): tasks on
// disjoint way masks can never evict each other's lines.
func TestPartitionIsolation(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(11))
	maskA := MaskRange(0, 2) // ways 0-1
	maskB := MaskRange(2, 6) // ways 2-7
	// Task A fills a modest working set. A may self-evict a couple of its
	// own lines inside its 2-way partition (random placement collisions),
	// so snapshot what is actually resident before B runs.
	for a := uint64(0); a < 128*16; a += 16 {
		c.Access(a, false, maskA, 0)
	}
	var residents []uint64
	for a := uint64(0); a < 128*16; a += 16 {
		if c.Contains(a) {
			residents = append(residents, a)
		}
	}
	if len(residents) < 100 {
		t.Fatalf("only %d of A's 128 lines resident after fill; placement suspect", len(residents))
	}
	// Task B thrashes hard within its own partition.
	for i := 0; i < 3; i++ {
		for a := uint64(1 << 20); a < (1<<20)+8192*16; a += 16 {
			c.Access(a, true, maskB, 1)
		}
	}
	// Every A line that was resident must still be resident: B cannot
	// evict outside its mask.
	for _, a := range residents {
		if !c.Contains(a) {
			t.Fatalf("partition B evicted partition A line %#x", a)
		}
	}
	if err := c.CheckInvariants(func(owner int) WayMask {
		if owner == 0 {
			return maskA
		}
		return maskB
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionCapacity: a task restricted to 1 way of the LLC has only
// 512 lines of capacity and must thrash on a 1024-line working set.
func TestPartitionCapacity(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(12))
	mask1 := MaskRange(0, 1)
	var misses, accesses uint64
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 1024*16; a += 16 {
			r := c.Access(a, false, mask1, 0)
			accesses++
			if !r.Hit {
				misses++
			}
		}
	}
	ratio := float64(misses) / float64(accesses)
	if ratio < 0.5 {
		t.Fatalf("1-way partition on 2x working set: miss ratio %v, want thrashing (>0.5)", ratio)
	}
	// The same workload with all 8 ways must mostly hit after the first pass.
	c2 := New(llc(TimeRandomised), rng.New(13))
	full := FullMask(8)
	var misses2, accesses2 uint64
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 1024*16; a += 16 {
			r := c2.Access(a, false, full, 0)
			accesses2++
			if !r.Hit {
				misses2++
			}
		}
	}
	ratio2 := float64(misses2) / float64(accesses2)
	if ratio2 > ratio/2 {
		t.Fatalf("full cache miss ratio %v not clearly better than 1-way partition %v", ratio2, ratio)
	}
}

func TestForceEvictDisplacesResidents(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(14))
	full := FullMask(8)
	// Fill the entire LLC.
	for a := uint64(0); a < 4096*16; a += 16 {
		c.Access(a, false, full, -1)
	}
	start := 0
	for a := uint64(0); a < 4096*16; a += 16 {
		if c.Contains(a) {
			start++
		}
	}
	// A storm of CRG evictions must displace a substantial fraction.
	for i := 0; i < 2048; i++ {
		c.ForceEvict()
	}
	remain := 0
	for a := uint64(0); a < 4096*16; a += 16 {
		if c.Contains(a) {
			remain++
		}
	}
	if remain >= start {
		t.Fatalf("forced evictions displaced nothing: %d -> %d", start, remain)
	}
	lost := start - remain
	if lost < 1000 {
		t.Fatalf("2048 forced evictions removed only %d resident lines", lost)
	}
	if got := c.Stats().ForcedEvict; got != 2048 {
		t.Fatalf("ForcedEvict stat = %d", got)
	}
}

func TestForceEvictDirtyWriteback(t *testing.T) {
	c := New(trCfg("tiny", 32, 2, 16), rng.New(15))
	full := FullMask(2)
	c.Access(0x00, true, full, -1) // one dirty line resident
	wb := 0
	for i := 0; i < 40 && c.Contains(0x00); i++ {
		if r := c.ForceEvict(); r.EvictedDirty {
			wb++
		}
	}
	if c.Contains(0x00) {
		t.Fatal("40 forced evictions never displaced the only resident line")
	}
	if wb != 1 {
		t.Fatalf("dirty forced evictions = %d, want 1", wb)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writeback stat = %d", c.Stats().Writebacks)
	}
}

// TestEoMVictimUniform: the EoM victim is uniform over the ways and
// ignores valid bits — a single resident line in an 8-way set is displaced
// by one further miss with probability exactly 1/8.
func TestEoMVictimUniform(t *testing.T) {
	src := rng.New(16)
	displaced := 0
	const trials = 16000
	for i := 0; i < trials; i++ {
		// Fully associative: 1 set, 8 ways, one resident line A.
		c := New(trCfg("fa8", 8*16, 8, 16), src.Fork())
		full := FullMask(8)
		c.Access(0, false, full, -1)  // A
		c.Access(16, false, full, -1) // B: uniform victim among 8 ways
		if !c.Contains(0) {
			displaced++
		}
	}
	got := float64(displaced) / trials
	// Binomial(16000, 1/8): sd ≈ 0.0026; allow 4 sigma.
	if math.Abs(got-0.125) > 0.011 {
		t.Fatalf("P(single miss displaces resident line) = %v, want 1/8", got)
	}
}

// TestMissProbabilityMatchesEquation1 checks the fully-associative term of
// the paper's Equation 1: for sequence <A, B1..Bk, A> with all Bl missing,
// P(miss of second A) = 1 - ((W-1)/W)^k for a fully-associative EoM cache.
func TestMissProbabilityMatchesEquation1(t *testing.T) {
	src := rng.New(17)
	const W = 8
	for _, k := range []int{1, 4, 8, 16} {
		misses := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			c := New(trCfg("fa", W*16, W, 16), src.Fork())
			full := FullMask(W)
			// Fill all W ways with filler lines so every subsequent miss
			// evicts (the equation's regime).
			for f := uint64(0); f < W; f++ {
				c.Access(0x8000+f*16, false, full, -1)
			}
			c.Access(0, false, full, -1) // A: evicts one filler
			for b := 1; b <= k; b++ {
				c.Access(uint64(0x10000+b*16), false, full, -1) // Bl: unique, miss
			}
			if r := c.Access(0, false, full, -1); !r.Hit {
				misses++
			}
		}
		got := float64(misses) / trials
		want := 1 - math.Pow(float64(W-1)/float64(W), float64(k))
		if math.Abs(got-want) > 0.035 {
			t.Errorf("k=%d: P(miss)=%v, Equation 1 predicts %v", k, got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	c := New(trCfg("tiny", 32, 2, 16), rng.New(40))
	full := FullMask(2)
	lk := c.Lookup(0x00, full)
	if lk.Hit || !lk.FreeWay {
		t.Fatalf("empty-cache lookup = %+v", lk)
	}
	c.Access(0x00, false, full, -1)
	lk = c.Lookup(0x00, full)
	if !lk.Hit {
		t.Fatalf("resident lookup = %+v", lk)
	}
	// Fill distinct lines until the single set reports no free way (EoM
	// victims are random, so a bounded number of extra fills may be
	// needed).
	for i := uint64(1); i < 64 && c.Lookup(0x200, full).FreeWay; i++ {
		c.Access(i*16, false, full, -1)
	}
	lk = c.Lookup(0x200, full)
	if lk.Hit || lk.FreeWay {
		t.Fatalf("full-set lookup of absent line = %+v", lk)
	}
	// Lookup leaves the contents alone and records nothing.
	st := c.Stats()
	for i := 0; i < 100; i++ {
		c.Lookup(uint64(i*16), full)
	}
	if c.Stats() != st {
		t.Fatal("Lookup changed statistics")
	}
	if err := c.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMaskRestricted(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(41))
	maskA := MaskRange(0, 2)
	maskB := MaskRange(2, 6)
	c.Access(0x40, false, maskA, 0)
	if !c.Lookup(0x40, maskA).Hit {
		t.Fatal("owner lookup missed")
	}
	if c.Lookup(0x40, maskB).Hit {
		t.Fatal("lookup saw a line outside its mask")
	}
}

// TestLookupMemoLineRecordsNothing pins MemoHits to committed hits: a
// Lookup answered by the memo records no statistics, and MemoHits stays a
// subset of Hits under a mixed stream of lookups and accesses.
func TestLookupMemoLineRecordsNothing(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(42))
	full := FullMask(8)
	c.Access(0x40, false, full, -1) // fill: 0x40 is now the memoed line
	c.ResetStats()
	if lk := c.Lookup(0x40, full); !lk.Hit {
		t.Fatal("memoed line missed")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("Lookup of the memoed line recorded %+v", st)
	}
	traffic := rng.New(43)
	for i := 0; i < 20000; i++ {
		addr := uint64(traffic.Intn(1<<14)) &^ 15
		switch traffic.Intn(3) {
		case 0:
			c.Lookup(addr, full)
		case 1:
			lk := c.Lookup(addr, full)
			if lk.Hit {
				c.CommitHit(lk, traffic.Intn(2) == 0)
			} else {
				c.Fill(lk, false, full, -1)
			}
		default:
			c.Access(addr, traffic.Intn(2) == 0, full, -1)
		}
		if st := c.Stats(); st.MemoHits > st.Hits {
			t.Fatalf("step %d: MemoHits %d > Hits %d", i, st.MemoHits, st.Hits)
		}
	}
	if st := c.Stats(); st.MemoHits == 0 {
		t.Fatalf("stream never hit the memo: %+v", st)
	}
}

// TestAccessMatchesLookupCommitFill is the differential check of the one
// access semantics: a seeded stream through Access on one cache and
// through Lookup then CommitHit or Fill on a twin built from the same
// seed must agree on every result, every counter and the invariant
// oracle after every access — under both policies, full and partitioned
// masks, and the tag-flip and disabled-way faults.
func TestAccessMatchesLookupCommitFill(t *testing.T) {
	faults := []struct {
		name string
		arm  func(*Cache)
	}{
		{"healthy", func(*Cache) {}},
		{"tagflip", func(c *Cache) { c.InjectTagFlip(1, 7) }},
		{"disabledways", func(c *Cache) { c.InjectDisabledWays(MaskRange(1, 3)) }},
	}
	masks := map[string][]WayMask{
		"full":        {FullMask(8)},
		"partitioned": {MaskRange(0, 2), MaskRange(2, 2), MaskRange(4, 4)},
	}
	for _, p := range []Policy{TimeRandomised, TimeDeterministic} {
		for mname, ms := range masks {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%v/%s/%s", p, mname, f.name), func(t *testing.T) {
					cfg := Config{Name: "diff", SizeBytes: 16 * 8 * 16, Ways: 8, LineBytes: 16, Policy: p}
					a, b := New(cfg, rng.New(60)), New(cfg, rng.New(60))
					f.arm(a)
					f.arm(b)
					ownerMask := func(owner int) WayMask { return ms[owner] }
					if len(ms) == 1 {
						ownerMask = nil
					}
					traffic := rng.New(61)
					var addr uint64
					var part int
					for i := 0; i < 20000; i++ {
						// Partitions own disjoint address ranges, as the
						// simulator's per-core address bases guarantee; a
						// quarter of the accesses repeat the previous line.
						if traffic.Intn(4) != 0 {
							part = traffic.Intn(len(ms))
							addr = uint64(part)<<16 | uint64(traffic.Intn(1<<8))<<4
						}
						write := traffic.Intn(4) == 0
						mask, owner := ms[part], part
						if ownerMask == nil {
							owner = -1
						}
						ra := a.Access(addr, write, mask, owner)
						var rb AccessResult
						if lk := b.Lookup(addr, mask); lk.Hit {
							b.CommitHit(lk, write)
							rb = AccessResult{Hit: true}
						} else {
							rb = b.Fill(lk, write, mask, owner)
						}
						if ra != rb {
							t.Fatalf("access %d (%#x): Access %+v, Lookup path %+v", i, addr, ra, rb)
						}
						if a.Stats() != b.Stats() {
							t.Fatalf("access %d: stats %+v vs %+v", i, a.Stats(), b.Stats())
						}
						ea, eb := a.CheckInvariants(ownerMask), b.CheckInvariants(ownerMask)
						if fmt.Sprint(ea) != fmt.Sprint(eb) {
							t.Fatalf("access %d: invariants %v vs %v", i, ea, eb)
						}
						if ea != nil && f.name != "tagflip" {
							t.Fatalf("access %d: %v", i, ea)
						}
					}
					if st := a.Stats(); st.Hits == 0 || st.Evictions == 0 || st.MemoHits == 0 {
						t.Fatalf("stream did not exercise hits and evictions: %+v", st)
					}
				})
			}
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(18))
	full := FullMask(4)
	c.Access(0x40, true, full, -1)
	res, dirty := c.Invalidate(0x40)
	if !res || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", res, dirty)
	}
	if c.Contains(0x40) {
		t.Fatal("line still resident after Invalidate")
	}
	res, _ = c.Invalidate(0x40)
	if res {
		t.Fatal("double Invalidate reported resident")
	}
}

func TestAccessEmptyMaskPanics(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(19))
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask did not panic")
		}
	}()
	c.Access(0, false, 0, -1)
}

// Property: after any access sequence, a set never holds duplicate tags and
// valid lines never exceed capacity.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	src := rng.New(20)
	cfgs := []Config{l1(TimeRandomised), l1(TimeDeterministic), llc(TimeRandomised)}
	for _, cfg := range cfgs {
		c := New(cfg, src.Fork())
		traffic := src.Fork()
		full := FullMask(cfg.Ways)
		for i := 0; i < 50000; i++ {
			addr := uint64(traffic.Intn(1 << 18))
			c.Access(addr, traffic.Intn(4) == 0, full, -1)
			if i%4096 == 0 {
				if err := c.CheckInvariants(nil); err != nil {
					t.Fatalf("%s after %d accesses: %v", cfg.Name, i, err)
				}
			}
		}
		if err := c.CheckInvariants(nil); err != nil {
			t.Fatal(err)
		}
		if v := c.ValidLines(); v > cfg.Sets()*cfg.Ways {
			t.Fatalf("%s: %d valid lines exceed capacity", cfg.Name, v)
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			t.Fatalf("%s: hits+misses != accesses: %+v", cfg.Name, st)
		}
	}
}

// Property test via testing/quick: residency after a fill.
func TestQuickFillThenContains(t *testing.T) {
	src := rng.New(21)
	c := New(llc(TimeRandomised), src.Fork())
	full := FullMask(8)
	err := quick.Check(func(addr uint32) bool {
		c.Access(uint64(addr), false, full, -1)
		return c.Contains(uint64(addr))
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLineAddr(t *testing.T) {
	c := New(l1(TimeRandomised), rng.New(22))
	for _, tc := range []struct{ addr, want uint64 }{
		{0, 0}, {15, 0}, {16, 1}, {17, 1}, {0x1000, 0x100},
	} {
		if got := c.LineAddr(tc.addr); got != tc.want {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", tc.addr, got, tc.want)
		}
	}
}

func TestStatsMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty stats miss ratio != 0")
	}
	s = Stats{Accesses: 10, Misses: 4}
	if s.MissRatio() != 0.4 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
}

func TestPolicyString(t *testing.T) {
	if TimeRandomised.String() != "time-randomised" || TimeDeterministic.String() != "time-deterministic" {
		t.Fatal("Policy.String broken")
	}
	if Policy(42).String() == "" {
		t.Fatal("unknown policy String empty")
	}
}

func BenchmarkAccessHitTR(b *testing.B) {
	c := New(llc(TimeRandomised), rng.New(1))
	full := FullMask(8)
	c.Access(0x1000, false, full, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, full, -1)
	}
}

func BenchmarkAccessMissTR(b *testing.B) {
	c := New(llc(TimeRandomised), rng.New(1))
	full := FullMask(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*16, false, full, -1)
	}
}

// TestAccessMissZeroAlloc guards the llc_access row of BENCH_SIM.json: a
// missing access to the time-randomised LLC (placement hash, tag scan, EoM
// victim draw, fill, dirty writeback) allocates nothing. The walk touches
// every line once, 2.5x the capacity, so every access misses and the
// later ones evict.
func TestAccessMissZeroAlloc(t *testing.T) {
	c := New(llc(TimeRandomised), rng.New(1))
	full := FullMask(8)
	var la uint64
	allocs := testing.AllocsPerRun(10000, func() {
		c.Access(la*16, la&7 == 0, full, -1)
		la++
	})
	if allocs != 0 {
		t.Fatalf("LLC miss allocates %.2f per access", allocs)
	}
	if st := c.Stats(); st.Misses != st.Accesses || st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("walk did not exercise the miss/evict path: %+v", st)
	}
}

func TestAccessNoAlloc(t *testing.T) {
	c := New(trCfg("wt", 32, 2, 16), rng.New(50))
	full := FullMask(2)
	// Miss: nothing allocated, stats recorded.
	if hit := c.AccessNoAlloc(0x00, full, -1); hit {
		t.Fatal("empty cache reported a hit")
	}
	if c.Contains(0x00) {
		t.Fatal("no-alloc access allocated")
	}
	st := c.Stats()
	if st.Accesses != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Hit after a regular fill; the line must stay clean.
	c.Access(0x00, false, full, -1)
	if hit := c.AccessNoAlloc(0x00, full, -1); !hit {
		t.Fatal("resident line missed")
	}
	// Evicting the line must not require a writeback (never dirtied).
	_, dirty := c.Invalidate(0x00)
	if dirty {
		t.Fatal("write-through path dirtied the line")
	}
}

func TestAccessNoAllocLRUTouch(t *testing.T) {
	// On the TD policy a no-alloc hit must refresh recency.
	c := New(tdCfg("wtlru", 32, 2, 16), rng.New(51))
	full := FullMask(2)
	c.Access(0x00, false, full, -1) // A
	c.Access(0x10, false, full, -1) // B
	c.AccessNoAlloc(0x00, full, -1) // touch A -> B becomes LRU
	r := c.Access(0x20, false, full, -1)
	if r.EvictedAddr != 0x10>>4 {
		t.Fatalf("LRU not refreshed by no-alloc hit: evicted %#x", r.EvictedAddr)
	}
}

func TestAccessNoAllocEmptyMaskPanics(t *testing.T) {
	c := New(trCfg("wt", 32, 2, 16), rng.New(52))
	defer func() {
		if recover() == nil {
			t.Fatal("empty mask did not panic")
		}
	}()
	c.AccessNoAlloc(0, 0, -1)
}
