// Package sim assembles the full multicore platform of the paper (§4.1)
// and runs programs on it in the two operation modes of Figure 1:
//
//   - Analysis: the task under analysis runs alone on one core; with EFL
//     enabled, the other cores' CRGs inject force-miss evictions into the
//     shared LLC at the maximum allowed frequency, and the analysed core's
//     bus and memory accesses are charged the worst-case contention
//     envelope (lottery against Ncores-1 phantom contenders on the bus,
//     the memory controller's upper-bound delay per access).
//
//   - Deployment: up to Ncores programs run together; bus arbitration,
//     memory queueing and LLC interference are simulated exactly, and each
//     core's LLC evictions are rate-limited by its EFL unit.
//
// The simulator is a conservative discrete-event engine: per-core timing
// is advanced instruction by instruction (package cpu), and shared
// resources are arbitrated at exact cycle granularity by processing events
// in nondecreasing time order, granting a resource only when no earlier
// request can still appear. LLC state mutations are applied at lookup
// time (the line fill is not delayed by the memory latency); this is the
// usual trace-simulator simplification and shifts interference by at most
// one memory round-trip.
package sim

import (
	"fmt"

	"efl/internal/cache"
	"efl/internal/efl"
)

// Config describes the platform. DefaultConfig returns the paper's setup.
type Config struct {
	// Cores is the number of cores (the paper evaluates 4).
	Cores int

	// L1SizeBytes/L1Ways describe each private IL1 and DL1 cache.
	L1SizeBytes int
	L1Ways      int
	// LLCSizeBytes/LLCWays describe the shared last-level cache.
	LLCSizeBytes int
	LLCWays      int
	// LineBytes is the line size used by every cache.
	LineBytes int
	// Policy selects time-randomised (paper) or time-deterministic caches
	// (ablation A3).
	Policy cache.Policy

	// Latencies (cycles): L1 hits are 1 cycle (implicit in the pipeline).
	BusSlotCycles int64 // bus access slot (2)
	LLCHitCycles  int64 // LLC hit latency (10)
	MemCycles     int64 // memory latency from issue to completion (100)
	MemSlotCycles int64 // memory controller issue-slot (bandwidth) length (5)
	BranchPenalty int64 // taken-branch redirect bubble (1)

	// DL1WriteThrough switches the data caches to write-through /
	// no-write-allocate (paper footnote 5 ablation): every store emits an
	// LLC write transaction.
	DL1WriteThrough bool
	// WTAllocate, with DL1WriteThrough, lets those LLC write misses
	// allocate (fetching the line from memory and paying the EFL gate) —
	// the variant footnote 5 warns makes "stalls frequent with EFL".
	// Without it, LLC write misses are forwarded to memory unallocated.
	WTAllocate bool

	// MID is the EFL minimum inter-eviction delay; 0 disables EFL.
	MID int64
	// EFLFixedMID uses deterministic inter-eviction delays instead of the
	// paper's U[0, 2*MID] randomisation (ablation A2 only).
	EFLFixedMID bool

	// PartitionWays, when non-nil, enables hardware way-partitioning (the
	// CP baseline): core i may only use PartitionWays[i] ways of the LLC.
	// Cores with 0 ways are invalid. The partitions are disjoint and
	// assigned in increasing way order.
	PartitionWays []int

	// Mode selects analysis or deployment operation (Figure 1).
	Mode efl.Mode
	// AnalysedCore is the core hosting the task under analysis (analysis
	// mode only).
	AnalysedCore int

	// MaxInstrPerCore aborts runaway programs (default 50M).
	MaxInstrPerCore uint64
	// MaxCycles aborts runaway simulations (default 2^62).
	MaxCycles int64

	// Hierarchy, when non-nil, replaces the flat L1*/LLC* geometry with an
	// ordered level-indexed descriptor: level 0 is the private per-core L1
	// pair (IL1+DL1), the last level is the shared cache the EFL gate
	// protects, and any levels between are shared intermediates consulted
	// in order on the way out. Nil means the legacy two-level layout
	// derived from the flat fields (bit-identical to the pre-hierarchy
	// simulator); an explicitly set empty slice is a validation error.
	Hierarchy []cache.LevelSpec

	// SharedDataBytes, when positive, marks the first SharedDataBytes bytes
	// of the data segment [isa.DataBase, isa.DataBase+SharedDataBytes) as
	// physically shared between the cores (no per-core address rebasing)
	// and enables the MSI coherence layer over the private data caches:
	// stores to shared lines invalidate peer copies through the bus, and
	// the cycles spent doing so are attributed to metrics.Coherence.
	// 0 (the default) keeps all data private per core.
	SharedDataBytes int
}

// DefaultConfig returns the paper's experimental platform (§4.1): 4 cores;
// 4KB 4-way 16B-line IL1/DL1; 64KB 8-way 16B-line shared LLC; 2-cycle bus,
// 10-cycle LLC hit, 100-cycle memory; time-randomised caches everywhere.
func DefaultConfig() Config {
	return Config{
		Cores:           4,
		L1SizeBytes:     4 * 1024,
		L1Ways:          4,
		LLCSizeBytes:    64 * 1024,
		LLCWays:         8,
		LineBytes:       16,
		Policy:          cache.TimeRandomised,
		BusSlotCycles:   2,
		LLCHitCycles:    10,
		MemCycles:       100,
		MemSlotCycles:   5,
		BranchPenalty:   1,
		Mode:            efl.Deployment,
		MaxInstrPerCore: 50_000_000,
		MaxCycles:       1 << 62,
	}
}

// WithEFL returns a copy of c with EFL enabled at the given MID and
// partitioning disabled.
func (c Config) WithEFL(mid int64) Config {
	c.MID = mid
	c.PartitionWays = nil
	return c
}

// WithPartition returns a copy of c with hardware way-partitioning (CP)
// giving each core the respective number of ways, and EFL disabled.
func (c Config) WithPartition(ways []int) Config {
	c.PartitionWays = append([]int(nil), ways...)
	c.MID = 0
	return c
}

// WithAnalysis returns a copy of c in analysis mode for the given core.
func (c Config) WithAnalysis(core int) Config {
	c.Mode = efl.Analysis
	c.AnalysedCore = core
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core")
	}
	if c.Hierarchy != nil {
		if len(c.Hierarchy) == 0 {
			return fmt.Errorf("sim: hierarchy descriptor has zero levels")
		}
		if len(c.Hierarchy) < 2 {
			return fmt.Errorf("sim: hierarchy needs at least two levels (private L1 + shared last level), got %d", len(c.Hierarchy))
		}
		if c.DL1WriteThrough {
			return fmt.Errorf("sim: DL1WriteThrough is only supported on the default two-level hierarchy")
		}
		seen := make(map[string]bool, len(c.Hierarchy))
		for i, s := range c.Hierarchy {
			if err := s.Validate(c.LineBytes); err != nil {
				return fmt.Errorf("sim: hierarchy level %d: %w", i, err)
			}
			if seen[s.Name] {
				return fmt.Errorf("sim: duplicate hierarchy level name %q", s.Name)
			}
			seen[s.Name] = true
			if i == 0 && s.Shared {
				return fmt.Errorf("sim: hierarchy level 0 (%q) is the per-core L1 and cannot be shared", s.Name)
			}
			if i > 0 && !s.Shared {
				return fmt.Errorf("sim: hierarchy level %d (%q) must be shared; only level 0 is private", i, s.Name)
			}
		}
	} else {
		l1 := cache.Config{Name: "L1", SizeBytes: c.L1SizeBytes, Ways: c.L1Ways,
			LineBytes: c.LineBytes, Policy: c.Policy}
		if err := l1.Validate(); err != nil {
			return err
		}
		llc := cache.Config{Name: "LLC", SizeBytes: c.LLCSizeBytes, Ways: c.LLCWays,
			LineBytes: c.LineBytes, Policy: c.Policy}
		if err := llc.Validate(); err != nil {
			return err
		}
	}
	if c.SharedDataBytes < 0 {
		return fmt.Errorf("sim: negative SharedDataBytes")
	}
	if c.SharedDataBytes > 0 {
		if c.LineBytes <= 0 || c.SharedDataBytes%c.LineBytes != 0 {
			return fmt.Errorf("sim: SharedDataBytes %d is not a multiple of the line size %d", c.SharedDataBytes, c.LineBytes)
		}
		if c.SharedDataBytes >= 1<<30 {
			return fmt.Errorf("sim: SharedDataBytes %d overruns the data segment", c.SharedDataBytes)
		}
		if c.DL1WriteThrough {
			return fmt.Errorf("sim: coherence (SharedDataBytes) requires write-back data caches")
		}
	}
	if c.BusSlotCycles < 1 || c.LLCHitCycles < 1 || c.MemCycles < 1 || c.MemSlotCycles < 1 {
		return fmt.Errorf("sim: latencies must be positive")
	}
	if c.BranchPenalty < 0 {
		return fmt.Errorf("sim: negative branch penalty")
	}
	if c.MID < 0 {
		return fmt.Errorf("sim: negative MID")
	}
	if c.WTAllocate && !c.DL1WriteThrough {
		return fmt.Errorf("sim: WTAllocate requires DL1WriteThrough")
	}
	if c.MID > 0 && c.PartitionWays != nil {
		return fmt.Errorf("sim: EFL and way-partitioning are alternative mechanisms; enable one")
	}
	if c.PartitionWays != nil {
		if len(c.PartitionWays) != c.Cores {
			return fmt.Errorf("sim: PartitionWays has %d entries for %d cores", len(c.PartitionWays), c.Cores)
		}
		sum := 0
		for i, w := range c.PartitionWays {
			if w < 0 {
				return fmt.Errorf("sim: core %d assigned %d ways", i, w)
			}
			// 0 ways is allowed for cores that run no program (e.g. the
			// idle co-runner slots of an analysis-mode CP configuration);
			// New rejects active cores with empty partitions.
			sum += w
		}
		if last := c.llcConfig(); sum > last.Ways {
			return fmt.Errorf("sim: partition uses %d of %d LLC ways", sum, last.Ways)
		}
	}
	if c.Mode == efl.Analysis && (c.AnalysedCore < 0 || c.AnalysedCore >= c.Cores) {
		return fmt.Errorf("sim: analysed core %d out of range", c.AnalysedCore)
	}
	return nil
}

// levels returns the ordered hierarchy descriptor: the configured
// Hierarchy when set, otherwise the legacy two-level layout derived from
// the flat fields (level 0 = the private L1 pair, level 1 = the shared
// LLC at LLCHitCycles).
func (c Config) levels() []cache.LevelSpec {
	if c.Hierarchy != nil {
		return c.Hierarchy
	}
	return []cache.LevelSpec{
		{Name: "L1", SizeBytes: c.L1SizeBytes, Ways: c.L1Ways,
			LatencyCycles: 1, Policy: c.Policy},
		{Name: "LLC", SizeBytes: c.LLCSizeBytes, Ways: c.LLCWays,
			Shared: true, LatencyCycles: c.LLCHitCycles, Policy: c.Policy},
	}
}

// midSpecs returns the shared intermediate levels (between the L1 pair
// and the last level) — empty for the default two-level layout.
func (c Config) midSpecs() []cache.LevelSpec {
	lv := c.levels()
	return lv[1 : len(lv)-1]
}

// l1Config returns the private-cache geometry.
func (c Config) l1Config(name string) cache.Config {
	cfg := c.levels()[0].Config(c.LineBytes)
	cfg.Name = name
	return cfg
}

// llcConfig returns the last shared level's geometry (the level the EFL
// gate protects — named "LLC" on the default layout).
func (c Config) llcConfig() cache.Config {
	lv := c.levels()
	return lv[len(lv)-1].Config(c.LineBytes)
}

// coherent reports whether the MSI shared-data layer is enabled.
func (c Config) coherent() bool { return c.SharedDataBytes > 0 }

// llcMask returns core i's LLC way mask under the configuration. A core
// with a 0-way partition gets an empty mask; it must stay idle.
func (c Config) llcMask(core int) cache.WayMask {
	if c.PartitionWays == nil {
		return cache.FullMask(c.llcConfig().Ways)
	}
	if c.PartitionWays[core] == 0 {
		return 0
	}
	lo := 0
	for i := 0; i < core; i++ {
		lo += c.PartitionWays[i]
	}
	return cache.MaskRange(lo, c.PartitionWays[core])
}
