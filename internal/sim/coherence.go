package sim

// This file holds the shared-level walk and the coherence layer the
// pluggable hierarchy brings over the fixed IL1/DL1→LLC platform:
//
//   - evalLevel, the miss walk every transaction that won the bus takes:
//     it serves the coherence side once at the first shared level, then
//     consults the shared levels in order (each intermediate charged its
//     own lookup latency), reaching evalLLC — and with it the EFL gate,
//     which protects the LAST level only — when every intermediate missed.
//     On the default two-level layout the walk goes straight to evalLLC.
//
//   - cohDir, the MSI directory for shared-data lines. The directory
//     tracks the BELIEVED protocol state (silent clean evictions are not
//     reported by the L1s, so the believed holder set over-approximates
//     the physical one — a stale entry can only cause a no-op
//     invalidation, never a missed one). Stores to non-owned lines raise
//     upgrade/read-for-ownership transactions through the existing bus
//     arbitration; every protocol transition emits a trace event at the
//     exact point it is applied, so the A5 auditor can replay the protocol
//     from the trace in insertion order (= simulator execution order) and
//     re-derive SWMR and no-stale-reads independently.

import (
	"sort"

	"efl/internal/cpu"
	"efl/internal/efl"
	"efl/internal/isa"
	"efl/internal/memctrl"
	"efl/internal/metrics"
	"efl/internal/trace"
)

// evalLevel processes the shared-level lookup of ctl.req completing at
// cycle t. ctl.lvl indexes the shared level being consulted:
// intermediates first, then the last level via evalLLC
// (EFL gate, CRG semantics, partitioning). One bus grant covers the whole
// walk — the bus is the core-side interconnect; hops between shared
// levels ride the backside and cost each level's lookup latency.
func (m *Multicore) evalLevel(ctl *coreCtl, t int64) {
	if m.coh != nil && ctl.lvl == 0 {
		// First shared level reached: serve the coherence side of a
		// shared-line fetch (peer invalidation / downgrade) before the
		// cache lookup.
		m.cohServe(ctl, t)
	}
	if ctl.lvl >= len(m.mids) {
		m.evalLLC(ctl, t)
		return
	}
	write := ctl.req.Kind != cpu.ReqFetch
	// A miss allocates here at lookup time (the simulator's usual
	// state-at-lookup convention; intermediate fills are not EFL-gated —
	// the gate protects the last level), so one Access serves the level.
	res := m.mids[ctl.lvl].Access(ctl.req.Addr, write, m.midMask[ctl.lvl], -1)
	if res.Hit {
		m.emit(t, ctl.id, trace.EvLLCHit, ctl.req.Addr, int64(ctl.lvl+1))
		m.finishRequest(ctl, t)
		return
	}
	// Walk outward. Dirty victims are posted to memory like the last
	// level's (non-inclusive hierarchy).
	m.emit(t, ctl.id, trace.EvLLCMiss, ctl.req.Addr, int64(ctl.lvl+1))
	if res.EvictedDirty && m.cfg.Mode == efl.Deployment {
		m.mcRequest(memctrl.Request{Core: ctl.id, Arrival: t, Kind: memctrl.Write})
	}
	if ctl.req.Kind == cpu.ReqWriteback {
		// A writeback deposits its line at the first shared level and is
		// done; it does not walk further out.
		m.finishRequest(ctl, t)
		return
	}
	ctl.lvl++
	lat := m.shLat[ctl.lvl]
	ctl.state = stWaitEval
	ctl.wakeAt = t + lat
	ctl.evalAt = ctl.wakeAt
	ctl.acct.Add(metrics.LLCLookup, lat)
}

// cohServe performs the coherence side of a shared-data fetch reaching the
// first shared level: an exclusive fetch (read-for-ownership) invalidates
// peer copies, a shared fetch downgrades a Modified peer copy.
func (m *Multicore) cohServe(ctl *coreCtl, t int64) {
	if ctl.req.Kind != cpu.ReqFetch || ctl.req.Instr {
		return
	}
	if !m.coh.shared(ctl.req.Addr) {
		return
	}
	m.coh.fetch(ctl.id, ctl.req.Addr, ctl.req.Excl, t)
}

// CoherenceStats counts the run's protocol traffic.
type CoherenceStats struct {
	Upgrades      uint64 // stores that had to invalidate peers of a resident line
	ExclFetches   uint64 // read-for-ownership fetches
	Invalidations uint64 // invalidation messages sent to peers
	Downgrades    uint64 // Modified peer copies demoted to Shared by a read
}

// CoherenceStats returns the protocol traffic of the last completed run
// (zero when the coherence layer is off).
func (m *Multicore) CoherenceStats() CoherenceStats {
	if m.coh == nil {
		return CoherenceStats{}
	}
	return m.coh.stats
}

// LineSharingStats describes one shared line's observed access pattern —
// the per-line multi-core report behind false-sharing detection.
type LineSharingStats struct {
	Addr     uint64 // line byte address
	Cores    int    // distinct cores that touched the line
	Accesses uint64
	Writes   uint64
	// FalseShared: at least two cores touched the line with pairwise
	// disjoint 4-byte-word footprints — they never shared a word, only
	// the line, so every invalidation between them was avoidable.
	FalseShared bool
}

// SharingReport returns the per-line sharing statistics of the last
// completed run, sorted by line address. Nil when the coherence layer is
// off.
func (m *Multicore) SharingReport() []LineSharingStats {
	if m.coh == nil {
		return nil
	}
	out := make([]LineSharingStats, 0, len(m.coh.lines))
	for la, e := range m.coh.lines {
		if e.epoch != m.coh.epoch {
			continue // not touched this run
		}
		s := LineSharingStats{Addr: la, Accesses: e.acc, Writes: e.writes}
		var union uint32
		popSum := 0
		for c, w := range e.words {
			if e.touched&(1<<uint(c)) == 0 {
				continue
			}
			s.Cores++
			union |= w
			popSum += popcount32(w)
		}
		s.FalseShared = s.Cores >= 2 && popSum == popcount32(union)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func popcount32(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// cohLine is one shared line's directory entry: the believed MSI state
// plus the access statistics backing the sharing report. An entry whose
// epoch is not the directory's belongs to an earlier run and reads as
// absent.
type cohLine struct {
	epoch   uint64
	owner   int8   // core holding the line in Modified, -1 none
	sharers uint32 // bitmask of believed holders
	touched uint32 // bitmask of cores that accessed the line this run
	acc     uint64
	writes  uint64
	words   []uint32 // per-core 4-byte-word offset masks within the line
}

// cohDir is the MSI directory. It lives on the simulator goroutine; no
// locking.
type cohDir struct {
	m        *Multicore
	lineMask uint64 // LineBytes-1
	limit    uint64 // exclusive upper bound of the shared window
	lines    map[uint64]*cohLine
	epoch    uint64 // current run; entries of other epochs are stale
	stats    CoherenceStats
}

func newCohDir(m *Multicore) *cohDir {
	return &cohDir{
		m:        m,
		lineMask: uint64(m.cfg.LineBytes - 1),
		limit:    isa.DataBase + uint64(m.cfg.SharedDataBytes),
		lines:    make(map[uint64]*cohLine),
	}
}

// reset clears the directory for a fresh run (per-run caches flush, so no
// believed holder survives either). It starts a new epoch instead of
// emptying the map, so the entries and their word masks are reused and a
// steady-state run allocates nothing.
func (d *cohDir) reset() {
	d.epoch++
	d.stats = CoherenceStats{}
}

// shared reports whether addr lies in the shared-data window.
func (d *cohDir) shared(addr uint64) bool {
	return addr >= isa.DataBase && addr < d.limit
}

// ensure returns la's entry for the current run, blank on its first
// access of the run.
func (d *cohDir) ensure(la uint64) *cohLine {
	e := d.lines[la]
	if e == nil {
		e = &cohLine{words: make([]uint32, len(d.m.cores))}
		d.lines[la] = e
	} else if e.epoch == d.epoch {
		return e
	}
	*e = cohLine{epoch: d.epoch, owner: -1, words: e.words}
	clear(e.words)
	return e
}

// Touch implements cpu.Coherence: it records a shared-window access and
// reports whether core holds the line in Modified state. Accesses that
// complete in the core's own DL1 (read hits, and write hits with
// ownership) emit the EvCohHit event the A5 auditor validates against the
// replayed protocol state.
func (d *cohDir) Touch(core int, addr uint64, write, l1hit bool) bool {
	la := addr &^ d.lineMask
	e := d.ensure(la)
	e.touched |= 1 << uint(core)
	e.acc++
	if write {
		e.writes++
	}
	e.words[core] |= 1 << ((addr & d.lineMask) >> 2)
	owns := int(e.owner) == core
	if l1hit && (!write || owns) {
		arg := int64(0)
		if write {
			arg = 1
		}
		d.m.emit(d.m.cores[core].core.Clock, core, trace.EvCohHit, la, arg)
	}
	return owns
}

// fetch applies the protocol transition of a shared-line fetch completing
// at cycle t: exclusive (read-for-ownership) invalidates every believed
// peer copy; shared downgrades a Modified peer and joins the sharer set.
// A fetch by the current owner keeps its ownership (the owner refetching
// a line it silently lost to a conflict eviction).
func (d *cohDir) fetch(core int, addr uint64, excl bool, t int64) {
	la := addr &^ d.lineMask
	e := d.ensure(la)
	if excl {
		d.stats.ExclFetches++
		d.invalidatePeers(e, la, core, t)
		e.owner = int8(core)
		e.sharers = 1 << uint(core)
		d.m.emit(t, core, trace.EvCohFetch, la, 1)
		return
	}
	if e.owner >= 0 && int(e.owner) != core {
		// Demote the Modified holder to Shared: its copy stays resident
		// but the dirty data is written back (posted).
		d.stats.Downgrades++
		p := int(e.owner)
		e.sharers |= 1 << uint(p)
		e.owner = -1
		if pc := d.m.cores[p]; pc.core != nil {
			if _, dirty := pc.core.DL1.Downgrade(la); dirty && d.m.cfg.Mode == efl.Deployment {
				d.m.mcRequest(memctrl.Request{Core: p, Arrival: t, Kind: memctrl.Write})
			}
		}
	}
	e.sharers |= 1 << uint(core)
	d.m.emit(t, core, trace.EvCohFetch, la, 0)
}

// upgrade applies the protocol transition of a store upgrading a resident
// shared line to Modified at cycle t.
func (d *cohDir) upgrade(core int, addr uint64, t int64) {
	la := addr &^ d.lineMask
	e := d.ensure(la)
	d.stats.Upgrades++
	n := d.invalidatePeers(e, la, core, t)
	e.owner = int8(core)
	e.sharers = 1 << uint(core)
	d.m.emit(t, core, trace.EvCohUpgrade, la, int64(n))
}

// invalidatePeers sends an invalidation to every believed holder of la
// except core, removing their DL1 copies (a dirty copy is written back,
// posted). The EvCohInval event records the message being SENT — the
// directory transitions regardless — while the stuck-invalidation fault
// (cohDropTo) drops the physical application, which is exactly the stale
// copy the A5 auditor must catch. Returns the number of messages sent.
func (d *cohDir) invalidatePeers(e *cohLine, la uint64, core int, t int64) int {
	hold := e.sharers
	if e.owner >= 0 {
		hold |= 1 << uint(e.owner)
	}
	n := 0
	for p := range d.m.cores {
		if p == core || hold&(1<<uint(p)) == 0 {
			continue
		}
		n++
		d.stats.Invalidations++
		d.m.emit(t, p, trace.EvCohInval, la, 0)
		if p == d.m.cohDropTo {
			continue
		}
		if pc := d.m.cores[p]; pc.core != nil {
			if _, dirty := pc.core.DL1.Invalidate(la); dirty && d.m.cfg.Mode == efl.Deployment {
				d.m.mcRequest(memctrl.Request{Core: p, Arrival: t, Kind: memctrl.Write})
			}
		}
	}
	return n
}
