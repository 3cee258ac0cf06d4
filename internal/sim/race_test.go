//go:build race

package sim

// raceEnabled reports a -race build, whose 5-10x slowdown the longest
// sequential sweeps scale down for: they check determinism, not
// interleavings, which the race detector has nothing to add to.
const raceEnabled = true
