// Package rng provides the pseudo-random number generators used throughout
// the simulator.
//
// The paper's hardware access control unit uses a Multiply-With-Carry (MWC)
// generator (Marsaglia & Zaman, "A new class of random number generators",
// Annals of Applied Probability 1(3), 1991) because it is cheap in hardware,
// has a huge period and passes the statistical tests required for
// MBPTA-grade randomisation. MWC is therefore the default Source for every
// randomised hardware structure in this repository: random cache placement
// (RII generation), evict-on-miss victim selection, bus lottery arbitration
// and the EFL minimum inter-eviction delay draws.
//
// All generators implement the Source interface and are deterministic given
// a seed, which makes every experiment in the repository bit-reproducible.
package rng

import "fmt"

// Source is a deterministic stream of uniformly distributed 32-bit values.
// It is the only interface the hardware models depend on, mirroring the
// paper's observation that a single hardware PRNG providing 32 bits per
// cycle is "largely above the bandwidth needed" (§3.5).
type Source interface {
	// Uint32 returns the next 32 uniformly distributed bits.
	Uint32() uint32
}

// MWC is the Multiply-With-Carry generator x_{n} = (a*x_{n-1} + c_{n-1})
// mod 2^32 with carry c_n = floor((a*x_{n-1}+c_{n-1}) / 2^32).
//
// With multiplier a = 4294957665 (a "safe" multiplier: a*2^31 - 1 and
// a*2^32 - 1 are prime) the generator has period a*2^31 - 1 ≈ 2^62.5.
// The zero value is NOT usable; construct with NewMWC.
type MWC struct {
	x uint32 // current state
	c uint32 // current carry
}

// mwcMultiplier is George Marsaglia's MWC multiplier for a single-word
// generator with near-2^63 period (the same constant used by his
// "MWC" example generators).
const mwcMultiplier = 4294957665

// NewMWC returns an MWC generator seeded from seed. Degenerate states
// (x == 0 && c == 0, or the fixed point x == 2^32-1 && c == a-1) are
// remapped to safe states so that every uint64 seed yields a usable stream.
func NewMWC(seed uint64) *MWC {
	m := &MWC{}
	m.Reseed(seed)
	return m
}

// Uint32 advances the generator and returns the next 32 random bits.
func (m *MWC) Uint32() uint32 {
	t := uint64(mwcMultiplier)*uint64(m.x) + uint64(m.c)
	m.x = uint32(t)
	m.c = uint32(t >> 32)
	return m.x
}

// Reseed re-initialises the generator in place without allocating; NewMWC
// delegates here, so a reseeded generator is the state NewMWC(seed) would
// produce by construction. Platform pooling (sim.Multicore.Reuse) and the
// per-run rewind of converged campaigns (sim.Multicore.Rewind) depend on
// both the equivalence and the zero-allocation property.
func (m *MWC) Reseed(seed uint64) {
	// Spread the seed bits with SplitMix64 so that nearby seeds produce
	// unrelated streams.
	s := splitMix64(&seed)
	m.x = uint32(s)
	m.c = uint32(s>>32) % (mwcMultiplier - 1)
	if m.x == 0 && m.c == 0 {
		m.x = 0x9e3779b9
	}
	if m.x == ^uint32(0) && m.c == mwcMultiplier-1 {
		m.c--
	}
	// Warm up: the first few outputs of MWC correlate with the raw seed.
	for i := 0; i < 8; i++ {
		m.Uint32()
	}
}

// Uint64 combines two generator words into 64 random bits, drawing the
// high word first — the same evaluation order as Stream.Uint64, so a bare
// MWC can stand in for a Stream when deriving child seeds without the
// interface boxing a Stream would require.
func (m *MWC) Uint64() uint64 {
	hi := uint64(m.Uint32())
	return hi<<32 | uint64(m.Uint32())
}

// State returns the internal (x, carry) pair, useful for checkpointing.
func (m *MWC) State() (x, c uint32) { return m.x, m.c }

// String implements fmt.Stringer for debugging.
func (m *MWC) String() string { return fmt.Sprintf("MWC{x:%#x c:%#x}", m.x, m.c) }

// CMWC is a complementary multiply-with-carry generator with lag r=8,
// period > 2^285. It is provided as a higher-quality alternative Source for
// software-side sampling (workload selection, statistical machinery) where
// hardware cost is irrelevant.
type CMWC struct {
	q [8]uint32
	c uint32
	i int
}

// cmwcMultiplier is a standard lag-8 CMWC multiplier.
const cmwcMultiplier = 987651386

// NewCMWC returns a CMWC generator seeded from seed.
func NewCMWC(seed uint64) *CMWC {
	g := &CMWC{}
	for i := range g.q {
		g.q[i] = uint32(splitMix64(&seed))
	}
	g.c = uint32(splitMix64(&seed)) % (cmwcMultiplier - 1)
	return g
}

// Uint32 advances the generator and returns the next 32 random bits.
func (g *CMWC) Uint32() uint32 {
	g.i = (g.i + 1) & 7
	t := uint64(cmwcMultiplier)*uint64(g.q[g.i]) + uint64(g.c)
	g.c = uint32(t >> 32)
	x := uint32(t) + g.c
	if x < g.c {
		x++
		g.c++
	}
	g.q[g.i] = ^x // complementary step
	return g.q[g.i]
}

// Reseed re-initialises the generator in place, equivalent to NewCMWC(seed).
func (g *CMWC) Reseed(seed uint64) { *g = *NewCMWC(seed) }

// splitMix64 is the SplitMix64 state mixer, used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream wraps a Source with convenience sampling methods. It is a value
// wrapper: copying a Stream shares the underlying Source.
type Stream struct {
	Src Source
}

// New returns a Stream over a fresh MWC generator seeded with seed.
func New(seed uint64) Stream { return Stream{Src: NewMWC(seed)} }

// Uint32 returns the next 32 random bits from the underlying source. The
// concrete-type check devirtualises the hot default source (MWC backs every
// randomised hardware structure): the same draw, via a direct inlineable
// call instead of an interface dispatch per 32 bits.
func (s Stream) Uint32() uint32 {
	if m, ok := s.Src.(*MWC); ok {
		return m.Uint32()
	}
	return s.Src.Uint32()
}

// Uint64 combines two source words into 64 random bits.
func (s Stream) Uint64() uint64 {
	hi := uint64(s.Uint32())
	return hi<<32 | uint64(s.Uint32())
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Rejection sampling removes modulo bias, which matters for the
// placement-uniformity guarantees of the random placement hash.
func (s Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint32(n)
	if un&(un-1) == 0 { // power of two: mask is exact
		return int(s.Uint32() & (un - 1))
	}
	// Rejection sampling over the largest multiple of n below 2^32.
	limit := ^uint32(0) - ^uint32(0)%un
	for {
		v := s.Uint32()
		if v < limit {
			return int(v % un)
		}
	}
}

// Int63n returns a uniformly distributed int64 in [0, n); it panics if n <= 0.
func (s Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return int64(s.Uint64() & (un - 1))
	}
	max := ^uint64(0) >> 1
	limit := max - max%un
	for {
		v := s.Uint64() >> 1
		if v < limit {
			return int64(v % un)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Range returns a uniformly distributed integer in [lo, hi] inclusive.
// It panics if hi < lo. This is the draw the EFL count-down counter uses:
// a new MID value in [0, 2*MIDdesired] on every eviction (§3.4).
func (s Stream) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + s.Int63n(hi-lo+1)
}

// Perm returns a uniformly random permutation of [0, n) (Fisher-Yates).
// Used by the lottery bus to order simultaneous requesters.
func (s Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent child stream. The child is seeded from the
// parent's output, so a single master seed can deterministically spawn the
// per-structure generators (one per cache, per core, per EFL unit ...).
func (s Stream) Fork() Stream {
	return New(s.Uint64())
}

// Reseeder is a Source that can be re-initialised in place.
type Reseeder interface {
	Reseed(seed uint64)
}

// Reseed rewinds the underlying source to the state a fresh generator
// seeded with seed would have. Because a Stream is a value wrapper over a
// shared Source pointer, every copy of the stream observes the reseed —
// this is what lets a pooled platform (sim.Multicore.Reuse) rewind all its
// forked streams without reallocating them. Panics if the Source does not
// implement Reseeder (both built-in generators do).
func (s Stream) Reseed(seed uint64) {
	r, ok := s.Src.(Reseeder)
	if !ok {
		panic("rng: Source does not support in-place reseeding")
	}
	r.Reseed(seed)
}
