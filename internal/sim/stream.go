package sim

// This file holds the stall streams of non-coherent platforms. There a
// core's private steps read nothing the platform writes: its L1s are its
// own, L1 fills never force LLC residency and LLC evictions never
// back-invalidate an L1 (the paper's non-inclusive hierarchy, §4.1), and
// tasks share no data. The only input a core takes from its co-runners is
// the clock at which it resumes after a shared transaction, and a core's
// steps are time-invariant: started at clock R instead of 0, every step
// starts and ends R cycles later and does the same work (no decision in
// a step depends on the clock; the instruction ceiling counts retires).
//
// So each active core runs on a producer goroutine of its own, stepping
// in private time: it never resumes, and its clock only counts its own
// pipeline's cycles. Every step that needs the platform becomes a stall
// record: its start and end clock, both counted from the previous stall's
// end, what it needs and the requests it popped. The event loop reads the
// records instead of stepping the core. A ready core's candidate is its
// resume clock plus the record's start offset, in the core class — the
// clock and class at which a lockstep loop would execute the step — and
// dispatching it commits the record at its resume clock plus the end
// offset. Results, statistics and trace events are those of the lockstep
// reference loop (TestGeneralLoopMatchesReference).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"efl/internal/cache"
	"efl/internal/cpu"
)

// stall is one step of a streamed core that needs the platform. It holds
// no pointers: buffers of stalls are plain memory that runs reuse.
type stall struct {
	start int64 // the step's start clock, counted from the previous stall's end
	end   int64 // the core's clock after the step, counted the same way
	// req holds the step's requests in issue order. Without coherence a
	// step queues at most two: a dirty DL1 victim's writeback and the
	// miss's fetch.
	req  [2]cpu.Request
	need int8 // a cpu.Need: NeedLLC, NeedHalt, NeedNone (past the instruction ceiling) or needLimit
	nreq int8 // requests in req
}

// needLimit marks a stream's last record when the core's private clock
// passed the run's cycle limit. The core's clock in the run is never
// below its private clock, so the loop stops at the limit before it could
// reach the record: the producer need not step further.
const needLimit cpu.Need = -1

// A producer fills chunks of chunkLen records, at most chunkDepth ahead
// of the loop, which hands consumed chunks back chunkDepth/2 at a time.
// The depth lets a producer run ahead far enough that the loop seldom
// waits for it to be scheduled; handing chunks back in batches wakes a
// blocked producer once per batch instead of once per chunk.
const (
	chunkLen   = 128
	chunkDepth = 8
)

// records is a producer's buffer: chunkDepth chunks of chunkLen stalls.
type records [chunkDepth][chunkLen]stall

// spare holds the record buffers no run is using. A buffer is needed only
// while a run streams, and a process keeps more platforms pooled than it
// runs at once (deploy-mix pools seven streamed platforms and runs one),
// so a run borrows a buffer per active core here and returns it once its
// producers have exited. Memory then follows the runs in flight, not the
// platforms held, and once the first runs have filled it no run
// allocates.
var spare struct {
	sync.Mutex
	bufs []*records
}

// borrowRecords takes a spare buffer, or makes one.
func borrowRecords() *records {
	spare.Lock()
	defer spare.Unlock()
	n := len(spare.bufs)
	if n == 0 {
		return new(records)
	}
	b := spare.bufs[n-1]
	spare.bufs = spare.bufs[:n-1]
	return b
}

// returnRecords gives a buffer back to spare.
func returnRecords(b *records) {
	spare.Lock()
	spare.bufs = append(spare.bufs, b)
	spare.Unlock()
}

// producer streams one core's stalls to the event loop. The platform owns
// it; its buffer is borrowed for each run.
type producer struct {
	core  *cpu.Core
	max   uint64 // the instruction ceiling
	limit int64  // the run's cycle limit

	chunks *records        // borrowed from spare while the run streams
	lens   [chunkDepth]int // records in each published chunk
	// full carries published chunks to the loop in order, then -1 if the
	// producer panicked; free carries consumed chunks back, then -1 to
	// stop the producer. Their capacity (chunkDepth+1) means no send
	// ever blocks.
	full, free chan int
	stop       atomic.Bool // set by the loop to stop stepping
	panicked   any         // the producer's panic value, read after -1 on full
	run        func()      // p.produce, bound once so each run's go statement allocates nothing
	done       func()      // the platform's WaitGroup.Done

	// carry is the core's IL1 and DL1 carried state at the start of the
	// run (see rollback).
	carry [2]cache.Carry

	// The loop's side: the chunk being read (-1: none), the next record
	// in it, its length, the consumed chunks not yet handed back, and the
	// records the loop committed this run.
	cur, pos, n int
	held        [chunkDepth / 2]int
	nheld       int
	committed   int

	// panicAt, when positive, makes the producer panic instead of
	// publishing its panicAt-th record (a test hook).
	panicAt int
}

// newProducer returns a producer whose exits are counted by done.
func newProducer(done func()) *producer {
	p := &producer{
		full: make(chan int, chunkDepth+1),
		free: make(chan int, chunkDepth+1),
		done: done,
	}
	p.run = p.produce
	return p
}

// start launches the producer stepping core, reset for the run, under the
// instruction ceiling max and the cycle limit. The caller has counted the
// producer into the platform's WaitGroup.
func (p *producer) start(core *cpu.Core, max uint64, limit int64) {
	for len(p.full) > 0 {
		<-p.full
	}
	for len(p.free) > 0 {
		<-p.free
	}
	for i := 1; i < chunkDepth; i++ {
		p.free <- i
	}
	p.core, p.max, p.limit = core, max, limit
	p.chunks = borrowRecords()
	p.stop.Store(false)
	p.panicked = nil
	p.cur, p.pos, p.n, p.nheld, p.committed = -1, 0, 0, 0, 0
	go p.run()
}

// produce steps the core until it halts, passes the instruction ceiling or
// the cycle limit, or the loop stops it, publishing a record for every
// step that needs the platform. It starts in chunk 0, and yields once it
// has published it: the loop, waiting for every core's first record, is
// then scheduled at once instead of after this producer has filled its
// whole buffer. A panic is handed to the loop, which re-raises it on its
// own goroutine.
func (p *producer) produce() {
	defer p.done()
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			p.full <- -1
		}
	}()
	c := p.core
	ci, n, base, made, first := 0, 0, int64(0), 0, true
	for !p.stop.Load() {
		need := c.Step()
		if need == cpu.NeedNone && c.Retired() <= p.max {
			if c.Clock <= p.limit {
				continue
			}
			need = needLimit
		}
		r := &p.chunks[ci][n]
		r.start, r.end, r.need, r.nreq = c.StepStart()-base, c.Clock-base, int8(need), 0
		for c.HasPending() {
			r.req[r.nreq] = c.PopRequest()
			r.nreq++
		}
		base = c.Clock
		n++
		if made++; made == p.panicAt {
			panic("sim: producer panic injected by test")
		}
		last := need != cpu.NeedLLC
		if n < chunkLen && !last {
			continue
		}
		p.lens[ci] = n
		p.full <- ci
		if last {
			return
		}
		if first {
			first = false
			runtime.Gosched()
		}
		if ci, n = <-p.free, 0; ci < 0 {
			return
		}
	}
}

// next returns the core's next record, waiting for the producer to
// publish it. The record stays valid until the following call. Consumed
// chunks go back in batches, and all at once before the loop waits, so
// the producer never waits for a chunk the loop holds.
func (p *producer) next() *stall {
	if p.pos == p.n {
		if p.cur >= 0 {
			p.held[p.nheld] = p.cur
			p.nheld++
		}
		if p.nheld == len(p.held) || len(p.full) == 0 {
			for _, ci := range p.held[:p.nheld] {
				p.free <- ci
			}
			p.nheld = 0
		}
		if p.cur = <-p.full; p.cur < 0 {
			panic(p.panicked)
		}
		p.pos, p.n = 0, p.lens[p.cur]
	}
	r := &p.chunks[p.cur][p.pos]
	p.pos++
	return r
}

// halt asks the producer to stop stepping and to exit instead of filling
// another chunk.
func (p *producer) halt() {
	p.stop.Store(true)
	select {
	case p.free <- -1:
	default:
	}
}

// stream starts a producer for every active core and loads each core's
// first record as its next event. limit is the run's cycle limit.
func (m *Multicore) stream(limit int64) {
	m.streaming = true
	for _, ctl := range m.cores {
		if ctl.core != nil {
			m.producers.Add(1)
			ctl.prod.start(ctl.core, m.cfg.MaxInstrPerCore, limit)
		}
	}
	for _, ctl := range m.cores {
		if ctl.core != nil {
			ctl.resumed = 0
			ctl.rec = ctl.prod.next()
			m.noteCore(ctl)
		}
	}
}

// join stops every producer still stepping, waits until all have exited
// and returns their buffers. It is idempotent, and a no-op on a run that
// does not stream.
func (m *Multicore) join() {
	if !m.streaming {
		return
	}
	for _, ctl := range m.cores {
		if ctl.core != nil {
			ctl.prod.halt()
		}
	}
	m.producers.Wait()
	for _, ctl := range m.cores {
		if p := ctl.prod; ctl.core != nil && p.chunks != nil {
			returnRecords(p.chunks)
			p.chunks = nil
		}
	}
}

// rollback leaves a run that failed as the lockstep reference loop would
// have: a producer ran ahead of the loop and drew from its L1s' PRNG
// streams for steps the loop never reached, and those streams carry into
// the next run. Only a step that misses draws, and the reference executes
// a stalling step exactly when the loop commits its record, so each core
// restores the carries saved at the start of the run, resets, and steps
// again through the records the loop committed.
func (m *Multicore) rollback() {
	if !m.streaming {
		return
	}
	for _, ctl := range m.cores {
		c := ctl.core
		if c == nil {
			continue
		}
		c.IL1.RestoreCarry(ctl.prod.carry[0])
		c.DL1.RestoreCarry(ctl.prod.carry[1])
		c.Reset()
		for n := 0; n < ctl.prod.committed; {
			if need := c.Step(); !m.private(ctl, need) {
				n++
				for c.HasPending() {
					c.PopRequest()
				}
			}
		}
	}
}
