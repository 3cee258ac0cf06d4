// Package runner is the campaign work engine: a deterministic,
// cancellation-safe worker pool shared by every experiment driver.
//
// The determinism contract has three legs:
//
//  1. Ordered fan-out: Map/MapWithState return results indexed exactly
//     like the input slice, regardless of which worker processed which
//     item or in what order items completed.
//
//  2. Seed stability: per-item randomness must be derived from the master
//     seed and a stable job identity via Seed (never from worker identity,
//     completion order or wall-clock), so results are invariant under the
//     worker count. Campaigns at Parallelism=1 and Parallelism=N produce
//     byte-identical artifacts.
//
//  3. Leak-free cancellation: on the first job error, or when ctx is
//     cancelled, no further jobs start; the pool waits for in-flight jobs
//     to return and then reports the first error. There are no channel
//     hand-offs a worker can block on (work is claimed from an atomic
//     cursor, results land in a pre-sized slice), which is what fixes the
//     collector/feeder deadlock the hand-rolled experiment pools had.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a completion snapshot delivered after each finished job.
type Progress struct {
	Done    int           // jobs completed so far
	Total   int           // total jobs
	Elapsed time.Duration // since the pool started
	// Remaining is the linear-rate ETA over the remaining jobs. It is an
	// estimate for operators, not part of the determinism contract.
	Remaining time.Duration
	// Worker is the pool worker that completed the job. Observability
	// only (live per-worker throughput); results never depend on it.
	Worker int
}

// Options configures a pool run.
type Options struct {
	// Parallelism bounds concurrent jobs (default GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives one snapshot per completed job.
	// Calls are serialised; the callback must not block for long.
	Progress func(Progress)
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Seed derives a deterministic 64-bit seed for a named job from the
// campaign master seed. The identity string must be stable across runs
// and worker counts (benchmark/config names, workload indices — never
// pointers, worker ids or timestamps); this is the seed-derivation leg of
// the package's determinism contract. Never returns 0 so the result can
// always seed generators that reject zero.
func Seed(master uint64, identity string) uint64 {
	h := master ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(identity) {
		h ^= uint64(b)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	if h == 0 {
		h = 1
	}
	return h
}

// RunSeed derives the seed of run i of a converged campaign whose master
// seed is campaign. The identity is the run index alone, so a campaign's
// sample and stopping point are stable across worker counts and callers.
func RunSeed(campaign uint64, i int) uint64 {
	return Seed(campaign, "run/"+strconv.Itoa(i))
}

// Map runs fn over every item and returns the results in item order.
// See MapWithState for the execution and cancellation semantics.
func Map[I, O any](ctx context.Context, opt Options, items []I, fn func(ctx context.Context, idx int, item I) (O, error)) ([]O, error) {
	return MapWithState(ctx, opt, func() struct{} { return struct{}{} },
		items, func(ctx context.Context, _ struct{}, idx int, item I) (O, error) {
			return fn(ctx, idx, item)
		})
}

// MapWithState runs fn over every item on a bounded worker pool and
// returns the results in item order. newState constructs one worker-local
// state value per worker (e.g. a sim.Pool of reusable platforms); fn owns
// it exclusively for the worker's lifetime, so it needs no locking.
//
// Work is claimed from an atomic cursor and results are written to the
// item's slot, so there is no channel a worker or feeder can block on: a
// job error (or ctx cancellation) stops new claims, in-flight jobs run to
// completion, and MapWithState returns only after every worker has
// exited. The first error, annotated with its job index, is returned.
func MapWithState[S, I, O any](ctx context.Context, opt Options, newState func() S, items []I, fn func(ctx context.Context, state S, idx int, item I) (O, error)) ([]O, error) {
	opt = opt.withDefaults()
	n := len(items)
	if n == 0 {
		return []O{}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]O, n)
	var (
		cursor   atomic.Int64 // next item to claim
		done     atomic.Int64
		mu       sync.Mutex // guards firstErr and Progress calls
		firstErr error
		wg       sync.WaitGroup
	)
	cursor.Store(-1)
	start := time.Now()

	workers := opt.Parallelism
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			state := newState()
			for {
				if ctx.Err() != nil {
					return
				}
				idx := int(cursor.Add(1))
				if idx >= n {
					return
				}
				o, err := fn(ctx, state, idx, items[idx])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("runner: job %d: %w", idx, err)
					}
					mu.Unlock()
					cancel()
					return
				}
				out[idx] = o
				d := int(done.Add(1))
				if opt.Progress != nil {
					elapsed := time.Since(start)
					var remaining time.Duration
					if d > 0 {
						remaining = time.Duration(float64(elapsed) / float64(d) * float64(n-d))
					}
					mu.Lock()
					opt.Progress(Progress{Done: d, Total: n, Elapsed: elapsed, Remaining: remaining, Worker: worker})
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
