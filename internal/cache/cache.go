// Package cache models the set-associative caches of the paper's platform:
// per-core first-level instruction and data caches (IL1/DL1) and the shared
// last-level cache (LLC).
//
// Two cache "paradigms" are supported (paper §1):
//
//   - Time-randomised (TR): random placement through the parametric hash of
//     package rnghash (re-parameterised with a fresh RII every run) and
//     Evict-on-Miss (EoM) random replacement. EoM is stateless: hits change
//     neither the cache contents nor any replacement metadata — only misses
//     (which create evictions) alter cache state. This is the property EFL
//     exploits (§3.3): bounding eviction frequency bounds all inter-task
//     cache interference.
//
//   - Time-deterministic (TD): modulo placement and LRU replacement, the
//     conventional design. Provided as a baseline and for the ablation
//     experiments.
//
// Hardware way-partitioning (the CP baseline, Paolieri ISCA'09) is modelled
// with per-access way masks: a task restricted to ways {0,1} can only look
// up, allocate into and evict from those ways.
//
// Caches are write-back with write-allocate and the hierarchy built from
// them is non-inclusive (§4.1): L1 fills do not force LLC residency and LLC
// evictions do not back-invalidate the L1s.
package cache

import (
	"fmt"
	"math/bits"

	"efl/internal/rng"
	"efl/internal/rnghash"
)

// Policy selects the cache paradigm.
type Policy int

const (
	// TimeRandomised selects random placement + Evict-on-Miss random
	// replacement (MBPTA-compliant, paper §3.2).
	TimeRandomised Policy = iota
	// TimeDeterministic selects modulo placement + LRU replacement.
	TimeDeterministic
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case TimeRandomised:
		return "time-randomised"
	case TimeDeterministic:
		return "time-deterministic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// WayMask restricts which ways of a set an access may use. Bit i set means
// way i is usable. The zero mask is invalid for accesses; use FullMask or a
// partition's mask.
type WayMask uint32

// FullMask returns the mask enabling ways [0, ways).
func FullMask(ways int) WayMask {
	if ways <= 0 || ways > 32 {
		panic("cache: ways out of range")
	}
	return WayMask(uint32(1)<<uint(ways)) - 1
}

// MaskRange returns the mask enabling ways [lo, lo+n).
func MaskRange(lo, n int) WayMask {
	if lo < 0 || n <= 0 || lo+n > 32 {
		panic("cache: bad mask range")
	}
	return (WayMask(uint32(1)<<uint(n)) - 1) << uint(lo)
}

// Count returns the number of enabled ways.
func (m WayMask) Count() int { return bits.OnesCount32(uint32(m)) }

// Config describes a cache's geometry and policy.
type Config struct {
	Name      string // for diagnostics ("IL1-0", "LLC", ...)
	SizeBytes int    // total capacity
	Ways      int    // associativity
	LineBytes int    // line size
	Policy    Policy
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.Ways > 32 {
		return fmt.Errorf("cache %q: more than 32 ways unsupported", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// line is one cache line's metadata. Tag stores the full line address
// (address >> log2(LineBytes)); with hashed placement the whole line
// address must be kept because the set index is not recoverable from it.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	owner int8 // partition owner, -1 if unowned; used for invariant checks
}

// Stats aggregates cache event counts.
type Stats struct {
	Accesses    uint64 // demand accesses (reads+writes)
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // valid lines displaced by demand misses
	Writebacks  uint64 // dirty lines displaced (demand or forced)
	ForcedEvict uint64 // evictions caused by force-miss (CRG) requests
	Flushes     uint64 // whole-cache flushes (RII changes)
	MemoHits    uint64 // committed hits the memo or memo table answered (subset of Hits)
}

// MissRatio returns Misses/Accesses, or 0 when there were no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced
	EvictedAddr  uint64 // line address of the displaced line
	EvictedDirty bool   // the displaced line needs a writeback
}

// Cache is a single set-associative cache instance. It is not safe for
// concurrent use; the simulator serialises accesses by construction.
//
// Every demand access, at every level, is one search, then one hit or one
// fill. The search (find) tries the last-hit memo, then the verified memo
// table, then the set scan; it records nothing. The hit (commitHit) counts
// the access and the hit — and a MemoHit when the memo or the table
// answered — dirties the line on a write and touches LRU recency. The fill
// (fill) counts the access and the miss, draws the victim and installs the
// line. Access composes the three in one call for the L1s and the
// intermediate levels; the LLC splits them as Lookup, then CommitHit or
// Fill, because an EFL stall can fall between the search and the fill;
// AccessNoAlloc searches and commits hits only.
//
// Placement state is inlined rather than held behind the rnghash.Placement
// interface: the set computation runs on every access of every simulated
// instruction, and a direct call on a concrete *Hash (or a masked index for
// the TD policy) is measurably cheaper than an interface dispatch.
type Cache struct {
	cfg       Config
	hash      rnghash.Hash // TR placement, re-parameterised in place per run
	modulo    bool         // TD placement: set = lineAddr & idxMask
	idxMask   uint64       // Sets()-1
	lineShift uint         // log2(LineBytes), precomputed in New
	eom       bool         // Policy == TimeRandomised (EoM replacement)
	allMask   WayMask      // FullMask(Ways)
	rnd       rng.Stream
	sets      [][]line
	lines     []line     // flat backing array of sets, for O(1) flushes
	lruAge    [][]uint32 // LRU timestamps, only maintained for TD policy
	lruClock  uint32
	synthTag  uint64 // counter for CRG artificial line tags
	stats     Stats

	// Last-hit memo: the line address, flat line index, way and set of the
	// most recently touched resident line. Spatial locality makes the next
	// access very often land on the same line (instruction fetch especially:
	// several sequential fetches per line), and the memo answers those hits
	// without the placement hash or the tag scan. Every mutation that could
	// displace the memoed line invalidates the memo; a memo hit is therefore
	// exactly equivalent to the full lookup (same set, same way, no
	// duplicate tags by invariant).
	memoLine uint64
	memoIdx  int32
	memoWay  int32
	memoSet  int32

	// Memo table: a direct-mapped translation memo (line address -> set/way)
	// covering lines beyond the single-entry memo. Unlike the single memo it
	// is not kept coherent with evictions; instead every probe is VERIFIED
	// against the actual line (valid bit and tag), so a stale entry can only
	// miss, never answer wrongly. A verified table hit is therefore exactly
	// the hit the full scan would find — same set, same way (tags within a
	// set are unique while no corrupt fill is resident) — obtained with one
	// line touch instead of the placement hash plus the way scan. Entries
	// are generation-stamped so a flush invalidates the whole table in O(1).
	memoTab     []memoEnt
	memoTabMask uint64
	memoGen     uint16
	// tagFaulted records that a fault-injected fill installed a corrupted
	// tag since the last flush. Corrupt tags can collide with resident
	// lines, breaking the unique-tags-per-set invariant the table probe
	// relies on; while set, the table is bypassed and the set scan (which
	// returns the last match in way order) answers.
	tagFaulted bool

	// validCount/dirtyCount track resident and dirty lines so Flush is O(1)
	// instead of a full-array scan per run. CheckInvariants cross-checks
	// them against the actual line states.
	validCount int
	dirtyCount int

	// victim way tables for partitioned masks: waysFor(mask)[k] is the
	// k-th enabled way, so an EoM victim draw is one Intn plus one index
	// instead of a popcount and a scan. Keyed linearly — a cache sees at
	// most a handful of distinct masks (one per partition).
	vtabMask []WayMask
	vtabWays [][]uint8

	// Fault-injection state (see fault.go). Zero values mean healthy.
	disabledWays WayMask    // ways unusable for victim selection
	flipBit      uint       // tag bit XORed on faulty fills
	flipPeriod   uint64     // >0: every flipPeriod-th Fill corrupts the tag
	fillCount    uint64     // fills since the flip fault was armed
	origSrc      rng.Source // pre-injection PRNG source, restored by ClearFaults
}

// synthTagBase marks CRG artificial line addresses; demand addresses in the
// simulated 32-bit physical space never reach this range.
const synthTagBase = uint64(1) << 62

// memoNone invalidates the last-hit memo: no demand line address (at most
// ~2^59 after the per-core address base) ever equals it.
const memoNone = ^uint64(0)

// memoEnt is one memo-table entry: the line address last installed at this
// slot, where it lived, and the generation it was recorded in.
type memoEnt struct {
	la  uint64
	set int32
	gen uint16
	way uint8
}

// New creates a cache. rnd drives victim selection (and, for the TR policy,
// successive RIIs via NewRun). The cache starts empty with, for TR, a
// placement drawn from rnd.
func New(cfg Config, rnd rng.Stream) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, rnd: rnd, allMask: FullMask(cfg.Ways), memoLine: memoNone}
	nsets := cfg.Sets()
	c.idxMask = uint64(nsets - 1)
	// At least one table slot per line (rounded up to a power of two for
	// mask indexing): a cache whose whole contents fit the table keeps
	// conflict evictions rare.
	tabSize := 1
	for tabSize < nsets*cfg.Ways {
		tabSize <<= 1
	}
	c.memoTab = make([]memoEnt, tabSize)
	c.memoTabMask = uint64(tabSize - 1)
	c.memoGen = 1
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	c.sets = make([][]line, nsets)
	c.lines = make([]line, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = c.lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		for w := range c.sets[i] {
			c.sets[i][w].owner = -1
		}
	}
	if cfg.Policy == TimeDeterministic {
		c.lruAge = make([][]uint32, nsets)
		ages := make([]uint32, nsets*cfg.Ways)
		for i := range c.lruAge {
			c.lruAge[i] = ages[i*cfg.Ways : (i+1)*cfg.Ways]
		}
		c.modulo = true
	} else {
		c.eom = true
		c.hash = *rnghash.New(nsets, rnghash.NewRII(rnd))
	}
	return c
}

// Reseed rewinds the cache to its just-constructed state under a fresh
// stream seed: contents invalidated, statistics and clocks cleared, the
// victim/placement stream re-initialised as rng.New(seed) would be, and
// (for the TR policy) a fresh construction RII drawn from that stream.
// The result is bit-identical to New(cfg, rng.New(seed)) — the same PRNG
// draws are consumed in the same order — but the line arrays are reused,
// which is what makes platform pooling (sim.Multicore.Reuse) cheap.
func (c *Cache) Reseed(seed uint64) {
	c.rnd.Reseed(seed)
	c.Flush()
	for i := range c.lines {
		c.lines[i].owner = -1
	}
	for i := range c.lruAge {
		clear(c.lruAge[i])
	}
	c.lruClock = 0
	c.synthTag = 0
	c.stats = Stats{}
	if c.cfg.Policy == TimeRandomised {
		c.hash.Reseed(rnghash.NewRII(c.rnd))
	}
}

// Carry is what a cache carries from one run into the next: its PRNG
// stream (victim draws, the next run's RII) and the tag-flip fill counter.
// Contents and statistics start afresh every run.
type Carry struct {
	rnd       rng.MWC
	fillCount uint64
}

// SaveCarry returns the cache's carried state. It panics unless the cache
// draws from an MWC, which every cache does outside fault injection.
func (c *Cache) SaveCarry() Carry {
	return Carry{rnd: *c.rnd.Src.(*rng.MWC), fillCount: c.fillCount}
}

// RestoreCarry rewinds the cache's carried state to k, saved by SaveCarry.
func (c *Cache) RestoreCarry(k Carry) {
	*c.rnd.Src.(*rng.MWC) = k.rnd
	c.fillCount = k.fillCount
}

// setIndex maps a line address to its set: a masked index for the TD
// policy, the parametric hash for the TR policy. Both are direct calls.
func (c *Cache) setIndex(la uint64) int {
	if c.modulo {
		return int(la & c.idxMask)
	}
	return c.hash.Set(la)
}

// setMemo records the resident line (la, set si, way wi) as the last hit,
// in both the single-entry memo and the memo table.
func (c *Cache) setMemo(la uint64, si, wi int) {
	c.memoLine = la
	c.memoSet = int32(si)
	c.memoWay = int32(wi)
	c.memoIdx = int32(si*c.cfg.Ways + wi)
	e := &c.memoTab[la&c.memoTabMask]
	e.la, e.set, e.gen, e.way = la, int32(si), c.memoGen, uint8(wi)
}

// memoHit reports whether the memo answers a lookup of la within mask.
func (c *Cache) memoHit(la uint64, mask WayMask) bool {
	return la == c.memoLine && mask&(1<<uint(c.memoWay)) != 0
}

// tabProbe consults the memo table for la within mask. A returned hit is
// verified against the line itself (current generation, valid, tag match,
// way inside mask), so it is exactly the hit the full scan would report;
// any mismatch — including a resident corrupt tag, which suspends the
// unique-tag invariant — falls back to the scan with a miss here.
func (c *Cache) tabProbe(la uint64, mask WayMask) (si, wi int, ok bool) {
	e := &c.memoTab[la&c.memoTabMask]
	if e.la != la || e.gen != c.memoGen || c.tagFaulted {
		return 0, 0, false
	}
	wi = int(e.way)
	if mask&(1<<uint(wi)) == 0 {
		return 0, 0, false
	}
	l := &c.sets[e.set][wi]
	if !l.valid || l.tag != la {
		return 0, 0, false
	}
	return int(e.set), wi, true
}

// invalidateMemoTab retires every table entry in O(1) by advancing the
// generation stamp; on the (astronomically rare) wraparound the table is
// cleared so stale stamps cannot alias the new generation.
func (c *Cache) invalidateMemoTab() {
	c.memoGen++
	if c.memoGen == 0 {
		clear(c.memoTab)
		c.memoGen = 1
	}
	c.tagFaulted = false
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr converts a byte address into a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// NewRun prepares the cache for a fresh program run: contents are flushed
// (the paper's consistency requirement when the RII changes) and, for the
// TR policy, a new RII is drawn so that every address maps to a new random
// set. Returns the number of dirty lines that would have been written back.
func (c *Cache) NewRun() int {
	wb := c.Flush()
	if c.cfg.Policy == TimeRandomised {
		c.hash.Reseed(rnghash.NewRII(c.rnd))
	}
	return wb
}

// Flush invalidates every line, returning the count of dirty lines
// (writebacks the flush would generate). The dirty count comes from the
// maintained counter and the array is zeroed wholesale (memclr), so the
// per-run flush no longer scans every line twice.
func (c *Cache) Flush() int {
	dirty := c.dirtyCount
	clear(c.lines)
	c.validCount = 0
	c.dirtyCount = 0
	c.memoLine = memoNone
	c.invalidateMemoTab()
	c.stats.Flushes++
	c.stats.Writebacks += uint64(dirty)
	return dirty
}

// Contains reports whether the line holding addr is currently resident.
// It performs no state change and records no statistics (a debug/test probe,
// not a hardware access).
func (c *Cache) Contains(addr uint64) bool { return c.resident(c.LineAddr(addr)) != nil }

// resident returns the valid line tagged la in its set, or nil. It is the
// unmasked, memo-free scan of the non-demand probes (Contains, Invalidate,
// Downgrade); demand accesses go through find.
func (c *Cache) resident(la uint64) *line {
	set := c.sets[c.setIndex(la)]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// Lookup is the outcome of the one tag search (find): everything both the
// hit path and the miss path of a transaction need. Complete it with
// CommitHit (hits) or Fill (misses). The set index and line address it
// carries stay valid across an EFL eviction-allowed stall (the RII cannot
// change mid-run), so the fill does not hash or scan again.
type Lookup struct {
	Hit     bool // the line is resident within the masked ways
	FreeWay bool // a fill could use an invalid masked way (no eviction)
	memo    bool // the hit was answered by the memo or the memo table
	way     int32
	set     int32
	line    uint64
}

// Lookup searches for addr within mask without recording statistics.
// FreeWay is computed on misses only (the miss path is its only consumer).
func (c *Cache) Lookup(addr uint64, mask WayMask) Lookup {
	if mask == 0 {
		panic("cache: lookup with empty way mask")
	}
	return c.find(c.LineAddr(addr), mask)
}

// find is the one tag search of a demand access: the single-entry memo,
// then the verified memo table, then the set scan. It records no
// statistics; a hit becomes the memoed line.
func (c *Cache) find(la uint64, mask WayMask) Lookup {
	if c.memoHit(la, mask) {
		return Lookup{Hit: true, memo: true, way: c.memoWay, set: c.memoSet, line: la}
	}
	if si, wi, ok := c.tabProbe(la, mask); ok {
		c.setMemo(la, si, wi)
		return Lookup{Hit: true, memo: true, way: int32(wi), set: int32(si), line: la}
	}
	si := c.setIndex(la)
	wi := scan(c.sets[si], la, mask)
	if wi < 0 {
		return Lookup{FreeWay: c.freeWay(si, mask) >= 0, way: -1, set: int32(si), line: la}
	}
	c.setMemo(la, si, wi)
	return Lookup{Hit: true, way: int32(wi), set: int32(si), line: la}
}

// scan searches set for a valid line tagged la within mask and returns its
// way, or -1. It is the only demand tag-scan loop. Tags within a set are
// unique, so any match is the only match — unless a fault-injected fill
// installed a corrupt tag that collides with a resident line. The scan
// runs from the highest way down, so the match it returns is then the last
// one in way order, the line the exhaustive scan would settle on.
func scan(set []line, la uint64, mask WayMask) int {
	for wi := len(set) - 1; wi >= 0; wi-- {
		if mask&(1<<uint(wi)) != 0 && set[wi].valid && set[wi].tag == la {
			return wi
		}
	}
	return -1
}

// CommitHit completes a hitting Lookup as a demand access.
func (c *Cache) CommitHit(lk Lookup, write bool) {
	if !lk.Hit {
		panic("cache: CommitHit on a missing lookup")
	}
	c.commitHit(int(lk.set), int(lk.way), write, lk.memo)
}

// commitHit is the one hit commit: statistics are recorded (MemoHits when
// the memo or the memo table answered), a write dirties the line, and LRU
// recency is maintained on the TD policy. EoM replacement is stateless on
// hits (§3.3).
func (c *Cache) commitHit(si, wi int, write, memo bool) {
	c.stats.Accesses++
	c.stats.Hits++
	if memo {
		c.stats.MemoHits++
	}
	if write {
		l := &c.sets[si][wi]
		if !l.dirty {
			l.dirty = true
			c.dirtyCount++
		}
	}
	if c.modulo {
		c.touchLRU(si, wi)
	}
}

// Fill completes a missing Lookup as a demand allocation.
func (c *Cache) Fill(lk Lookup, write bool, mask WayMask, owner int) AccessResult {
	return c.fill(int(lk.set), lk.line, write, mask, owner)
}

// fill is the one fill body: line la is allocated into set si
// (write-allocate). Statistics are recorded, a victim is drawn within mask
// at fill time (set contents may have changed during an EFL stall — CRG
// force-misses can occupy ways — so valid bits are re-read here, exactly
// as a re-scan would), the displaced line is reported, the armed tag-flip
// fault may corrupt the installed tag, and the new line becomes the
// memoed line.
func (c *Cache) fill(si int, la uint64, write bool, mask WayMask, owner int) AccessResult {
	c.stats.Accesses++
	c.stats.Misses++
	victim := c.pickVictim(si, mask)
	res := AccessResult{}
	v := &c.sets[si][victim]
	if v.valid {
		res.Evicted = true
		res.EvictedAddr = v.tag
		res.EvictedDirty = v.dirty
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			c.dirtyCount--
		}
	} else {
		c.validCount++
	}
	tag := la
	if c.flipPeriod > 0 && c.fillTagFault() {
		tag ^= 1 << c.flipBit
		c.tagFaulted = true
	}
	v.tag = tag
	v.valid = true
	v.dirty = write
	v.owner = int8(owner)
	if write {
		c.dirtyCount++
	}
	if tag == la {
		c.setMemo(la, si, victim)
	} else {
		// The installed tag is corrupt: hardware would only rediscover the
		// line by scanning its own set, so the cross-set memo must not
		// advertise it under the flipped address.
		c.memoLine = memoNone
	}
	if c.modulo {
		c.touchLRU(si, victim)
	}
	return res
}

// Access performs a demand read (write=false) or write (write=true) of the
// line containing addr, restricted to the ways enabled in mask, on behalf
// of partition owner (use -1 when partitioning is off). On a miss the line
// is allocated (write-allocate) and a victim may be displaced. It is the
// transaction Lookup followed by CommitHit or Fill performs, in one call.
func (c *Cache) Access(addr uint64, write bool, mask WayMask, owner int) AccessResult {
	if mask == 0 {
		panic("cache: access with empty way mask")
	}
	la := c.LineAddr(addr)
	// find's memo and memo-table checks, inlined: the L1s run this once
	// per simulated instruction, and a call here costs as much again as
	// the whole memo hit.
	if c.memoHit(la, mask) {
		c.commitHit(int(c.memoSet), int(c.memoWay), write, true)
		return AccessResult{Hit: true}
	}
	if si, wi, ok := c.tabProbe(la, mask); ok {
		c.setMemo(la, si, wi)
		c.commitHit(si, wi, write, true)
		return AccessResult{Hit: true}
	}
	si := c.setIndex(la)
	if wi := scan(c.sets[si], la, mask); wi >= 0 {
		c.setMemo(la, si, wi)
		c.commitHit(si, wi, write, false)
		return AccessResult{Hit: true}
	}
	return c.fill(si, la, write, mask, owner)
}

// pickVictim chooses the way to fill within mask.
//
// Time-randomised (EoM): the victim is uniformly random among the masked
// ways *regardless of valid bits* — the Kosmidis DATE'13 design, whose
// replacement is stateless and never inspects the set. This is what makes
// every miss an eviction event (the property EFL's gate counts on) and
// what makes Equation 1's fully-associative factor exact from an empty
// cache.
//
// Time-deterministic (LRU): conventional — an invalid way if any,
// otherwise the least recently used masked way.
func (c *Cache) pickVictim(si int, mask WayMask) int {
	if c.disabledWays != 0 {
		// Fault injection: faulty ways cannot be allocated into. If the
		// fault wipes out the whole mask the draw falls back to the original
		// mask (the request must complete somewhere), which cannot happen
		// with the plans fault.Plan validation admits.
		if um := mask &^ c.disabledWays; um != 0 {
			mask = um
		}
	}
	if c.modulo {
		if wi := c.freeWay(si, mask); wi >= 0 {
			return wi
		}
		best, bestAge := -1, uint32(0)
		for wi := range c.sets[si] {
			if mask&(1<<uint(wi)) == 0 {
				continue
			}
			if best == -1 || c.lruAge[si][wi] < bestAge {
				best, bestAge = wi, c.lruAge[si][wi]
			}
		}
		return best
	}
	// EoM: uniformly random victim among the masked ways. The unpartitioned
	// mask — the common case — needs no table: way k is enabled way k, so
	// the draw Intn(Count(mask)) *is* the victim. Partitioned masks go
	// through a precomputed enabled-way table; either path performs exactly
	// the one Intn draw (same n, same stream position, same victim) the
	// popcount-and-scan version did.
	if mask == c.allMask {
		return c.rnd.Intn(c.cfg.Ways)
	}
	ways := c.waysFor(mask)
	return int(ways[c.rnd.Intn(len(ways))])
}

// freeWay returns the lowest invalid way of set si within mask, or -1.
func (c *Cache) freeWay(si int, mask WayMask) int {
	set := c.sets[si]
	for wi := range set {
		if mask&(1<<uint(wi)) != 0 && !set[wi].valid {
			return wi
		}
	}
	return -1
}

// waysFor returns (building on first use) the enabled-way table of mask.
func (c *Cache) waysFor(mask WayMask) []uint8 {
	for i, m := range c.vtabMask {
		if m == mask {
			return c.vtabWays[i]
		}
	}
	ways := make([]uint8, 0, mask.Count())
	for wi := 0; wi < c.cfg.Ways; wi++ {
		if mask&(1<<uint(wi)) != 0 {
			ways = append(ways, uint8(wi))
		}
	}
	c.vtabMask = append(c.vtabMask, mask)
	c.vtabWays = append(c.vtabWays, ways)
	return ways
}

// touchLRU marks way wi of set si most recently used.
func (c *Cache) touchLRU(si, wi int) {
	c.lruClock++
	c.lruAge[si][wi] = c.lruClock
}

// StatelessReadHits reports whether a read hit leaves the cache's contents
// and replacement state untouched — true for the TR policy, whose EoM
// replacement never inspects or updates recency on hits (§3.3), false for
// TD/LRU where every hit reorders the recency stack, and false while tag
// faults are armed (a corrupt fill clears the memo, which breaks the
// same-line => memo-hit reasoning below). Trace replay (cpu.Trace) uses
// this to elide statically-guaranteed same-line hits: under EoM such an
// access only counts statistics (and, for a store, dirties the memo line).
func (c *Cache) StatelessReadHits() bool { return c.eom && c.flipPeriod == 0 }

// BulkMemoHits records n read hits answered without performing the
// accesses. The caller asserts each elided access was a guaranteed
// memo-answered hit (same line as the previous access, line resident,
// policy with stateless read hits); the counters then advance exactly as n
// memo-path Access calls would. Trace replay uses this for the same-line
// runs it proves at trace-compile time.
func (c *Cache) BulkMemoHits(n uint64) {
	c.stats.Accesses += n
	c.stats.Hits += n
	c.stats.MemoHits += n
}

// MemoWriteHits records n store hits to the memo line without performing
// the accesses: the counters advance as n memo-path writes would, and the
// memoed line is dirtied (the transition fires on the first store only,
// exactly like n sequential memo-path writes). Same precondition as
// BulkMemoHits, plus a write-allocate cache so the memo line is resident.
func (c *Cache) MemoWriteHits(n uint64) {
	c.stats.Accesses += n
	c.stats.Hits += n
	c.stats.MemoHits += n
	l := &c.lines[c.memoIdx]
	if !l.dirty {
		l.dirty = true
		c.dirtyCount++
	}
}

// AccessNoAlloc performs a no-allocate access: a hit behaves like Access
// (including LRU maintenance on the TD policy) but a miss changes nothing —
// the line is not fetched. This is the DL1 behaviour of a write-through,
// no-write-allocate design (paper footnote 5): stores update the DL1 only
// if the line is already present and always propagate outward. Lines are
// never dirtied (the outer level holds the authoritative copy).
func (c *Cache) AccessNoAlloc(addr uint64, mask WayMask, owner int) (hit bool) {
	if mask == 0 {
		panic("cache: access with empty way mask")
	}
	lk := c.find(c.LineAddr(addr), mask)
	if !lk.Hit {
		c.stats.Accesses++
		c.stats.Misses++
		return false
	}
	c.commitHit(int(lk.set), int(lk.way), false, lk.memo)
	return true
}

// ForceEvict implements the LLC side of a CRG force-miss request (§3.5):
// a request flagged force-miss behaves as a guaranteed miss, displacing a
// random victim. With random placement the victim set is uniformly
// distributed, so the hardware's "hash of an artificial address" is modelled
// as a uniform (set, way) draw. Returns eviction info (a dirty victim needs
// a writeback, which occupies memory bandwidth just like a demand one).
func (c *Cache) ForceEvict() AccessResult {
	si := c.rnd.Intn(len(c.sets))
	wi := c.rnd.Intn(c.cfg.Ways)
	v := &c.sets[si][wi]
	res := AccessResult{}
	c.stats.ForcedEvict++
	if v.valid {
		res.Evicted = true
		res.EvictedAddr = v.tag
		res.EvictedDirty = v.dirty
		if v.dirty {
			c.stats.Writebacks++
			c.dirtyCount--
		}
	} else {
		c.validCount++
	}
	if int32(si*c.cfg.Ways+wi) == c.memoIdx {
		c.memoLine = memoNone
	}
	// The artificial line stays resident (the way is occupied in hardware)
	// under a synthetic address that no demand access ever references.
	c.synthTag++
	v.tag = synthTagBase | c.synthTag
	v.valid = true
	v.dirty = false
	v.owner = -1
	return res
}

// Invalidate removes the line holding addr if resident, returning whether
// it was dirty. Used by tests and by non-inclusive hierarchy management.
func (c *Cache) Invalidate(addr uint64) (resident, dirty bool) {
	la := c.LineAddr(addr)
	l := c.resident(la)
	if l == nil {
		return false, false
	}
	d := l.dirty
	l.valid, l.dirty, l.owner = false, false, -1
	c.validCount--
	if d {
		c.dirtyCount--
	}
	if la == c.memoLine {
		c.memoLine = memoNone
	}
	return true, d
}

// ValidLines returns the number of currently valid lines (test/inspection).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// CheckInvariants verifies structural invariants, returning a descriptive
// error when one is violated. Intended for tests and debug builds:
//   - no duplicate valid tags within a set;
//   - every valid line's owner (when partitioned) occupies a way inside
//     that owner's registered mask.
func (c *Cache) CheckInvariants(ownerMask func(owner int) WayMask) error {
	valid, dirty := 0, 0
	for i := range c.lines {
		if c.lines[i].valid {
			valid++
			if c.lines[i].dirty {
				dirty++
			}
		}
	}
	if valid != c.validCount || dirty != c.dirtyCount {
		return fmt.Errorf("cache %s: counters valid=%d dirty=%d but lines have %d/%d",
			c.cfg.Name, c.validCount, c.dirtyCount, valid, dirty)
	}
	if c.memoLine != memoNone {
		l := c.lines[c.memoIdx]
		if !l.valid || l.tag != c.memoLine {
			return fmt.Errorf("cache %s: stale memo line %#x at index %d",
				c.cfg.Name, c.memoLine, c.memoIdx)
		}
	}
	for si := range c.sets {
		seen := map[uint64]int{}
		for wi := range c.sets[si] {
			l := c.sets[si][wi]
			if !l.valid {
				continue
			}
			if prev, dup := seen[l.tag]; dup {
				return fmt.Errorf("cache %s: set %d has tag %#x in ways %d and %d",
					c.cfg.Name, si, l.tag, prev, wi)
			}
			seen[l.tag] = wi
			if ownerMask != nil && l.owner >= 0 {
				if ownerMask(int(l.owner))&(1<<uint(wi)) == 0 {
					return fmt.Errorf("cache %s: set %d way %d holds owner %d outside its mask",
						c.cfg.Name, si, wi, l.owner)
				}
			}
		}
	}
	return nil
}
