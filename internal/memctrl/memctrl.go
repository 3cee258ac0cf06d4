// Package memctrl models the analysable memory controller of the paper's
// platform (§4.1), after Paolieri et al., "An Analyzable Memory Controller
// for Hard Real-Time CMPs" (IEEE Embedded Systems Letters, 2009).
//
// The AMC's design goal is a composable per-request Upper Bound Delay
// (UBD): regardless of co-runner behaviour, a core's request completes
// within a fixed bound. It achieves this with bank interleaving and
// round-robin issue: the controller can overlap requests (banked DRAM), so
// its bandwidth limit is one issue per IssueSlot cycles, while each request
// takes Service cycles from issue to data return. Blocking reads have
// priority over posted writebacks (write draining uses spare bandwidth), so
// a read waits at most Cores-1 foreign reads plus one in-flight write slot:
//
//	UBD = Cores*IssueSlot + Service
//
// The simulator uses the controller in two regimes:
//
//   - Deployment: requests queue; one issues per IssueSlot (oldest read
//     first, arrival ties broken round-robin by core, writes only when no
//     read is eligible) and completes Service cycles later.
//   - Analysis: the task under analysis charges the UBD for every memory
//     read, upper-bounding any deployment-time queueing.
//
// The deployment queue has two parts. Blocking reads wait in a small
// slice in enqueue order: the platform has at most one outstanding read
// per core, so a linear pick is cheap. Posted writes wait in a binary
// min-heap keyed by (arrival, enqueue sequence), because read priority
// lets them pile up: a coherent deployment holds hundreds to thousands of
// them. One issue therefore costs O(log backlog), with exactly the
// choices of a linear scan over one queue in enqueue order.
package memctrl

import (
	"fmt"
	"math"

	"efl/internal/metrics"
)

// Kind distinguishes blocking reads from posted writes.
type Kind int

const (
	// Read is a blocking line fetch; the requesting core resumes when it
	// completes.
	Read Kind = iota
	// Write is a posted writeback; it only consumes bandwidth.
	Write
)

// Request is one pending memory transaction.
type Request struct {
	Core    int
	Arrival int64
	Kind    Kind
	Tag     int64 // caller-defined correlation tag
}

// Stats aggregates controller activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	WaitCycles int64 // issue - arrival summed over requests
	BusySlots  int64 // issue slots consumed
}

// Controller is the shared memory controller. Pending blocking reads sit
// in reads, in enqueue order; posted writes sit in the min-heap writes,
// ordered by (Arrival, seq). The requests of one arrival cycle in the
// heap form a subtree at its root, so the write issue walks only that
// group before an O(log n) removal. Both backing arrays are reused across
// runs: serving allocates nothing.
type Controller struct {
	service int64 // access latency from issue to completion (100)
	slot    int64 // minimum spacing between issues (bandwidth limit)
	cores   int
	nextAt  int64  // earliest next issue cycle
	rr      int    // round-robin pointer for tie-breaking
	seq     uint64 // writes enqueued since Reset
	reads   []Request
	writes  []queued
	stats   Stats
	// readLat distributes end-to-end blocking-read latencies (completion −
	// arrival). Its Max is what the soundness auditor compares against
	// UpperBoundDelay: deployment must never exceed the analysis charge.
	readLat metrics.Histogram

	// Fault-injection state (see the hooks below): every overrunPeriod-th
	// read completes overrunExtra cycles late. Zero values mean healthy.
	overrunExtra  int64
	overrunPeriod uint64
	overrunCount  uint64
}

// queued is a posted write with its enqueue sequence number, which
// orders the writes of one core that share an arrival cycle.
type queued struct {
	Request
	seq uint64
}

// InjectReadOverrun makes every period-th blocking read complete extra
// cycles after its nominal service time — a controller that occasionally
// violates its own composable Upper Bound Delay (a DRAM refresh collision
// the AMC design is supposed to mask, say). Armed/disarmed by
// sim.Multicore between runs.
func (c *Controller) InjectReadOverrun(extra int64, period uint64) {
	if extra < 0 || period == 0 {
		panic("memctrl: bad overrun fault parameters")
	}
	c.overrunExtra = extra
	c.overrunPeriod = period
	c.overrunCount = 0
}

// ClearFaults restores nominal service latency.
func (c *Controller) ClearFaults() {
	c.overrunExtra = 0
	c.overrunPeriod = 0
	c.overrunCount = 0
}

// New creates a controller: serviceCycles from issue to completion, one
// issue per slotCycles, for an N-core system.
func New(serviceCycles, slotCycles int64, cores int) *Controller {
	if serviceCycles < 1 || slotCycles < 1 || cores < 1 {
		panic("memctrl: bad parameters")
	}
	return &Controller{service: serviceCycles, slot: slotCycles, cores: cores}
}

// Service returns the issue-to-completion latency.
func (c *Controller) Service() int64 { return c.service }

// UpperBoundDelay returns the analysis-time latency charged per memory
// read: at most Cores-1 foreign reads plus one in-flight write occupy
// issue slots ahead of the request, then it completes Service cycles after
// its own issue.
func (c *Controller) UpperBoundDelay() int64 {
	return int64(c.cores)*c.slot + c.service
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// ReadLatencyHistogram returns a copy of the end-to-end blocking-read
// latency distribution (histograms are plain values; copying snapshots).
func (c *Controller) ReadLatencyHistogram() metrics.Histogram { return c.readLat }

// MaxReadLatency returns the largest end-to-end read latency served so far
// (0 when no read was served).
func (c *Controller) MaxReadLatency() int64 { return c.readLat.Max() }

// Reset clears the queue and occupancy for a new run.
func (c *Controller) Reset() {
	c.nextAt = 0
	c.rr = 0
	c.seq = 0
	c.reads = c.reads[:0]
	c.writes = c.writes[:0]
	c.stats = Stats{}
	c.readLat.Reset()
}

// Request enqueues a transaction.
func (c *Controller) Request(r Request) {
	if r.Kind == Read {
		c.reads = append(c.reads, r)
		return
	}
	c.seq++
	c.writes = append(c.writes, queued{r, c.seq})
	c.siftUp(len(c.writes) - 1)
}

// HasWaiters reports whether any request is pending.
func (c *Controller) HasWaiters() bool { return len(c.reads)+len(c.writes) > 0 }

// NextStartTime returns the earliest cycle the next issue can happen.
// It panics without waiters.
func (c *Controller) NextStartTime() int64 {
	if !c.HasWaiters() {
		panic("memctrl: NextStartTime without waiters")
	}
	min := int64(math.MaxInt64)
	if len(c.writes) > 0 {
		min = c.writes[0].Arrival
	}
	for _, r := range c.reads {
		if r.Arrival < min {
			min = r.Arrival
		}
	}
	if c.nextAt > min {
		return c.nextAt
	}
	return min
}

// Serve issues the next request: among requests that have arrived by the
// issue time, reads precede writes; within a kind the oldest wins, with
// arrival ties broken round-robin by core and then by enqueue order. It
// returns the issued request and its completion cycle. The caller must
// ensure no earlier request can still be injected.
func (c *Controller) Serve() (Request, int64) {
	t := c.NextStartTime()
	best := -1
	for i, r := range c.reads {
		if r.Arrival > t {
			continue
		}
		if best == -1 || r.Arrival < c.reads[best].Arrival ||
			r.Arrival == c.reads[best].Arrival && c.rrBefore(r.Core, c.reads[best].Core) {
			best = i
		}
	}
	var req Request
	if best >= 0 {
		req = c.reads[best]
		c.reads = append(c.reads[:best], c.reads[best+1:]...)
	} else {
		// No read is eligible, so the oldest arrival is a write's: the
		// heap top's, and t is at or past it.
		best = c.writeWinner(2, c.writeWinner(1, 0))
		req = c.writes[best].Request
		c.removeWrite(best)
	}
	done := t + c.service
	c.nextAt = t + c.slot
	c.rr = (req.Core + 1) % c.cores
	if req.Kind == Read {
		if c.overrunPeriod > 0 {
			c.overrunCount++
			if c.overrunCount%c.overrunPeriod == 0 {
				done += c.overrunExtra
			}
		}
		c.stats.Reads++
		c.readLat.Observe(done - req.Arrival)
	} else {
		c.stats.Writes++
	}
	c.stats.WaitCycles += t - req.Arrival
	c.stats.BusySlots++
	return req, done
}

// writeWinner returns the heap index of the write to issue, given best,
// the winner among the writes visited so far, and i, the root of a
// subtree not yet visited. The candidates are the writes that share the
// heap top's arrival; the winner is the first core in round-robin order,
// and that core's earliest-enqueued write. A heap node's ancestors are
// never later than it, so the candidates form a subtree containing the
// root, and the walk stops at the first later node on each path.
func (c *Controller) writeWinner(i, best int) int {
	h := c.writes
	if i >= len(h) || h[i].Arrival != h[0].Arrival {
		return best
	}
	w, b := h[i], h[best]
	if c.rrBefore(w.Core, b.Core) || w.Core == b.Core && w.seq < b.seq {
		best = i
	}
	return c.writeWinner(2*i+2, c.writeWinner(2*i+1, best))
}

// removeWrite deletes heap entry i, moving the last entry into its place.
func (c *Controller) removeWrite(i int) {
	last := len(c.writes) - 1
	c.writes[i] = c.writes[last]
	c.writes = c.writes[:last]
	if i < last {
		c.siftDown(i)
		c.siftUp(i)
	}
}

// before orders the write heap by arrival, then enqueue sequence.
func (c *Controller) before(i, j int) bool {
	a, b := &c.writes[i], &c.writes[j]
	return a.Arrival < b.Arrival || a.Arrival == b.Arrival && a.seq < b.seq
}

func (c *Controller) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(i, p) {
			return
		}
		c.writes[i], c.writes[p] = c.writes[p], c.writes[i]
		i = p
	}
}

func (c *Controller) siftDown(i int) {
	n := len(c.writes)
	for {
		m, l := i, 2*i+1
		if l < n && c.before(l, m) {
			m = l
		}
		if r := l + 1; r < n && c.before(r, m) {
			m = r
		}
		if m == i {
			return
		}
		c.writes[i], c.writes[m] = c.writes[m], c.writes[i]
		i = m
	}
}

// rrBefore reports whether core a precedes core b in the current
// round-robin order.
func (c *Controller) rrBefore(a, b int) bool {
	ra := (a - c.rr + c.cores) % c.cores
	rb := (b - c.rr + c.cores) % c.cores
	return ra < rb
}

// String implements fmt.Stringer for diagnostics.
func (c *Controller) String() string {
	return fmt.Sprintf("MemCtrl{service:%d slot:%d nextAt:%d waiters:%d}",
		c.service, c.slot, c.nextAt, len(c.reads)+len(c.writes))
}
