// Package cluster shards the estimation service horizontally: a
// consistent-hash router sends every compute request to the home node of
// its content-addressed cache key, a shared result store makes finished
// campaigns visible fleet-wide, and deterministic work-stealing re-routes
// around saturated or dead nodes.
//
// The whole design leans on one property the single-node service already
// pins: response bodies are pure functions of the SHA-256 cache key
// (simulator determinism + canonical request resolution). Any node may
// therefore serve any key from any replica of the result — routing is a
// performance decision, never a correctness one, and the acceptance bar
// is byte-identical responses regardless of which node answers.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the fleet's node IDs. Every member
// owns the same number of points on the ring (DefaultVirtualNodes on a
// node's ring); a key's home node is the member owning the first point at
// or after the key's hash. The ring is immutable after construction —
// membership changes (a dropped node) are handled by walking Sequence, not
// by rebuilding the ring, so every node routes from the same table and
// re-routing around a death is deterministic fleet-wide.
type Ring struct {
	members []string
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVirtualNodes is the per-member point count used when NewRing is
// given a non-positive count. 64 points per member keeps the expected
// per-member key share within a few percent of uniform for small fleets.
const DefaultVirtualNodes = 64

// NewRing builds a ring over members (order-insensitive; duplicates
// collapse) with vnodes points each (<= 0 selects DefaultVirtualNodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := map[string]bool{}
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically unlikely) break by member so every node
		// sorts the identical table.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the home node of key.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.locate(key)].member
}

// Sequence returns every member exactly once, in the deterministic
// failover order for key: the home node first, then each subsequent
// distinct member walking the ring. Routing tries candidates in this
// order, so every node in the fleet re-routes around the same failure to
// the same survivor.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	start := r.locate(key)
	for i := 0; i < len(r.points) && len(seq) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			seq = append(seq, m)
		}
	}
	return seq
}

// locate returns the index of the first point at or after key's hash,
// wrapping past the top of the ring.
func (r *Ring) locate(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ringHash positions a string on the ring. SHA-256 (truncated to 64 bits)
// rather than a fast non-cryptographic hash: ring placement runs once per
// request against keys that are already SHA-256 hexes, and reusing the
// one hash the repo's determinism story is built on keeps the routing
// table trivially portable across implementations.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
