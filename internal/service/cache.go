package service

// The result cache and request coalescing live here. Both exist for the
// same reason: pWCET campaigns are expensive (hundreds of simulated runs)
// while their results are pure functions of the canonical request identity
// — the same (config, program, runs, seed, probabilities) always produces
// the same bytes, by the simulator's determinism contract. So identical
// requests should cost one campaign total, whether they arrive after the
// first finished (cache hit) or while it is still running (coalescing).

import "efl/internal/lru"

// newResultCache returns an LRU over byte values keyed by a content hash,
// holding at most cap entries (cap >= 1) totalling at most maxBytes of
// value bytes (0: no byte budget). It backs the result cache — finished
// response bodies keyed by the canonical request hash, replayed
// byte-identically on a hit, which the determinism tests pin — and the
// uploaded-trace registry. A few hundred audited estimate responses
// (whose audit blocks grow with the run count) can reach hundreds of
// megabytes well inside any reasonable entry cap, which is why the byte
// budget exists.
//
// Callers hold the server mutex; the cache itself is not locked.
func newResultCache(cap int, maxBytes int64) *lru.Cache[string, []byte] {
	return lru.New[string, []byte](cap, maxBytes, func(b []byte) int64 { return int64(len(b)) })
}
