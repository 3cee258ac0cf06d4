package cache

// Level support for the pluggable hierarchy: a LevelSpec describes one
// level of the memory system (geometry, sharing, lookup latency, policy)
// and a Level pairs the spec with a live cache instance. The simulator
// walks an ordered []LevelSpec — level 0 is the per-core L1 pair, the
// last level is the shared LLC the EFL gate protects, and any levels in
// between are shared intermediates — instead of hardwiring IL1/DL1→LLC.

import "fmt"

// LevelSpec describes one level of the cache hierarchy.
type LevelSpec struct {
	Name          string // unique level name ("L1", "L2", "LLC", ...)
	SizeBytes     int    // per-instance capacity (per core when private)
	Ways          int    // associativity
	Shared        bool   // one instance for all cores (false: one per core)
	LatencyCycles int64  // lookup latency charged when the level is consulted
	Policy        Policy // placement/replacement paradigm (zero = TimeRandomised)
}

// Config materialises the cache geometry of the spec with the given line
// size (line size is a platform-wide property, not per level).
func (s LevelSpec) Config(lineBytes int) Config {
	return Config{
		Name:      s.Name,
		SizeBytes: s.SizeBytes,
		Ways:      s.Ways,
		LineBytes: lineBytes,
		Policy:    s.Policy,
	}
}

// Validate reports whether the spec is internally consistent for the given
// line size. Beyond the cache geometry checks it pins the hierarchy rules:
// positive latency, and (checked by the caller, which knows the position)
// the sharing constraints.
func (s LevelSpec) Validate(lineBytes int) error {
	if s.Name == "" {
		return fmt.Errorf("cache level: empty name")
	}
	if s.LatencyCycles <= 0 {
		return fmt.Errorf("cache level %q: latency %d cycles, want > 0", s.Name, s.LatencyCycles)
	}
	if s.SizeBytes&(s.SizeBytes-1) != 0 {
		return fmt.Errorf("cache level %q: size %d bytes is not a power of two", s.Name, s.SizeBytes)
	}
	if s.Ways&(s.Ways-1) != 0 {
		return fmt.Errorf("cache level %q: %d ways is not a power of two", s.Name, s.Ways)
	}
	return s.Config(lineBytes).Validate()
}

// Level is one live shared cache level: the spec it was built from plus
// the cache instance. (Private levels are per-core and live with the core.)
type Level struct {
	Spec LevelSpec
	*Cache
}

// Downgrade transitions the line holding addr from Modified to Shared on
// behalf of the coherence layer: the line stays resident but its dirty bit
// is cleared (the writeback the downgrade implies is the caller's to
// account). Returns whether the line was resident and whether it was dirty.
func (c *Cache) Downgrade(addr uint64) (resident, wasDirty bool) {
	l := c.resident(c.LineAddr(addr))
	if l == nil {
		return false, false
	}
	d := l.dirty
	if d {
		l.dirty = false
		c.dirtyCount--
	}
	return true, d
}
