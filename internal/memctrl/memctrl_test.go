package memctrl

import (
	"fmt"
	"testing"

	"efl/internal/metrics"
	"efl/internal/rng"
)

func TestServeSingle(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 10, Kind: Read})
	if got := c.NextStartTime(); got != 10 {
		t.Fatalf("start = %d", got)
	}
	req, done := c.Serve()
	if req.Core != 0 || done != 110 {
		t.Fatalf("serve = %+v done %d", req, done)
	}
	if c.HasWaiters() {
		t.Fatal("queue not drained")
	}
}

func TestIssueSlotSpacing(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 0, Kind: Read})
	c.Request(Request{Core: 1, Arrival: 0, Kind: Read})
	_, d1 := c.Serve()
	_, d2 := c.Serve()
	if d1 != 100 {
		t.Fatalf("first completion %d", d1)
	}
	// Second issues one slot later, overlapping with the first (banked).
	if d2 != 115 {
		t.Fatalf("second completion %d, want 115", d2)
	}
}

func TestOldestReadFirst(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 2, Arrival: 50, Kind: Read})
	c.Request(Request{Core: 1, Arrival: 20, Kind: Read})
	req, done := c.Serve()
	if req.Core != 1 || done != 120 {
		t.Fatalf("oldest-first violated: %+v done %d", req, done)
	}
	req, _ = c.Serve()
	if req.Core != 2 {
		t.Fatalf("second serve = %+v", req)
	}
}

func TestReadsPrecedeWrites(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 0, Kind: Write})
	c.Request(Request{Core: 1, Arrival: 0, Kind: Read})
	req, _ := c.Serve()
	if req.Kind != Read {
		t.Fatal("write issued ahead of a pending read")
	}
	req, _ = c.Serve()
	if req.Kind != Write {
		t.Fatal("write lost")
	}
}

func TestRoundRobinTieBreak(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 3, Arrival: 0, Kind: Read})
	c.Request(Request{Core: 1, Arrival: 0, Kind: Read})
	req, _ := c.Serve()
	if req.Core != 1 {
		t.Fatalf("tie-break served core %d first", req.Core)
	}
	req, _ = c.Serve()
	if req.Core != 3 {
		t.Fatalf("second tie-break served core %d", req.Core)
	}
}

func TestRoundRobinPointerAdvances(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 0, Kind: Read})
	c.Serve() // pointer now at 1
	c.Request(Request{Core: 0, Arrival: 100, Kind: Read})
	c.Request(Request{Core: 1, Arrival: 100, Kind: Read})
	req, _ := c.Serve()
	if req.Core != 1 {
		t.Fatalf("pointer did not advance: served %d", req.Core)
	}
}

// TestUBDHolds: with any mix of one read per core plus writes already
// queued, a newly arriving read completes within UBD.
func TestUBDHolds(t *testing.T) {
	c := New(100, 15, 4)
	// Adversarial backlog: 3 foreign reads and a write, all earlier.
	c.Request(Request{Core: 1, Arrival: 0, Kind: Read})
	c.Request(Request{Core: 2, Arrival: 0, Kind: Read})
	c.Request(Request{Core: 3, Arrival: 0, Kind: Write})
	c.Request(Request{Core: 3, Arrival: 1, Kind: Read})
	// The request under test arrives last.
	c.Request(Request{Core: 0, Arrival: 2, Kind: Read})
	var done0 int64 = -1
	for c.HasWaiters() {
		req, done := c.Serve()
		if req.Core == 0 && req.Kind == Read {
			done0 = done
		}
	}
	if done0 < 0 {
		t.Fatal("request never served")
	}
	latency := done0 - 2
	if latency > c.UpperBoundDelay() {
		t.Fatalf("read latency %d exceeds UBD %d", latency, c.UpperBoundDelay())
	}
}

func TestUBD(t *testing.T) {
	if ubd := New(100, 15, 4).UpperBoundDelay(); ubd != 160 {
		t.Fatalf("UBD = %d", ubd)
	}
	if ubd := New(100, 15, 1).UpperBoundDelay(); ubd != 115 {
		t.Fatalf("single-core UBD = %d", ubd)
	}
}

func TestWriteAccounting(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 0, Kind: Write})
	c.Request(Request{Core: 1, Arrival: 0, Kind: Read})
	c.Serve()
	c.Serve()
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusySlots != 2 {
		t.Fatalf("busy slots = %d", st.BusySlots)
	}
}

func TestReset(t *testing.T) {
	c := New(100, 15, 4)
	c.Request(Request{Core: 0, Arrival: 0, Kind: Read})
	c.Serve()
	c.Request(Request{Core: 0, Arrival: 0, Kind: Read})
	c.Reset()
	if c.HasWaiters() || c.Stats() != (Stats{}) {
		t.Fatal("Reset incomplete")
	}
	c.Request(Request{Core: 0, Arrival: 5, Kind: Read})
	if c.NextStartTime() != 5 {
		t.Fatal("nextAt not reset")
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 15, 4) },
		func() { New(100, 0, 4) },
		func() { New(100, 15, 0) },
		func() { New(100, 15, 4).NextStartTime() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkServe(b *testing.B) {
	c := New(100, 15, 4)
	for i := 0; i < b.N; i++ {
		c.Request(Request{Core: i % 4, Arrival: int64(i * 10), Kind: Read})
		c.Serve()
	}
}

// BenchmarkServeBacklog times one Serve with n posted writes pending, the
// backlog read priority builds up on coherent deployments (about 64
// pending at the mean over a deployment mix, about 2 048 at the coherent
// peak). Each iteration issues the oldest write and posts a new one, so
// the backlog stays at n.
func BenchmarkServeBacklog(b *testing.B) {
	for _, n := range []int{1, 64, 2048} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			c := New(100, 15, 4)
			next := int64(0)
			post := func(i int) {
				c.Request(Request{Core: i % 4, Arrival: next, Kind: Write})
				next += 2
			}
			for i := 0; i < n; i++ {
				post(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Serve()
				post(i)
			}
		})
	}
}

// linearController is the single-queue controller the heap replaced: every
// pending request in one slice in enqueue order, scanned in full on each
// issue. It is the reference TestServeMatchesLinearScan checks the
// read-slice/write-heap controller against.
type linearController struct {
	service, slot int64
	cores         int
	nextAt        int64
	rr            int
	wait          []Request
	stats         Stats
	readLat       metrics.Histogram

	overrunExtra  int64
	overrunPeriod uint64
	overrunCount  uint64
}

func (c *linearController) Request(r Request) { c.wait = append(c.wait, r) }

func (c *linearController) HasWaiters() bool { return len(c.wait) > 0 }

func (c *linearController) Reset() {
	c.nextAt, c.rr, c.wait = 0, 0, c.wait[:0]
	c.stats = Stats{}
	c.readLat.Reset()
}

func (c *linearController) NextStartTime() int64 {
	min := c.wait[0].Arrival
	for _, r := range c.wait[1:] {
		if r.Arrival < min {
			min = r.Arrival
		}
	}
	if c.nextAt > min {
		return c.nextAt
	}
	return min
}

func (c *linearController) Serve() (Request, int64) {
	t := c.NextStartTime()
	rrBefore := func(a, b int) bool {
		return (a-c.rr+c.cores)%c.cores < (b-c.rr+c.cores)%c.cores
	}
	best := -1
	better := func(i, b int) bool {
		r, cur := c.wait[i], c.wait[b]
		if (r.Kind == Read) != (cur.Kind == Read) {
			return r.Kind == Read
		}
		if r.Arrival != cur.Arrival {
			return r.Arrival < cur.Arrival
		}
		return rrBefore(r.Core, cur.Core)
	}
	for i, r := range c.wait {
		if r.Arrival > t {
			continue
		}
		if best == -1 || better(i, best) {
			best = i
		}
	}
	req := c.wait[best]
	c.wait = append(c.wait[:best], c.wait[best+1:]...)
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

// TestServeMatchesLinearScan drives the controller and the linear-scan
// reference with the same seeded streams — reads shaped like
// TestUBDProperty's (at most one outstanding per core), bursts of posted
// writes sharing one arrival from several cores and from one core, the
// read-overrun fault armed in some trials, Reset mid-stream — and
// requires identical observable state after every operation.
func TestServeMatchesLinearScan(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		cores := 1 + src.Intn(6)
		service := int64(20 + src.Intn(200))
		slot := int64(1 + src.Intn(30))
		c := New(service, slot, cores)
		ref := &linearController{service: service, slot: slot, cores: cores}
		if trial%3 == 0 {
			extra, period := int64(src.Intn(300)), uint64(1+src.Intn(5))
			c.InjectReadOverrun(extra, period)
			ref.overrunExtra, ref.overrunPeriod = extra, period
		}
		check := func(op string) {
			t.Helper()
			if c.HasWaiters() != ref.HasWaiters() {
				t.Fatalf("trial %d, %s: HasWaiters %v, reference %v", trial, op, c.HasWaiters(), ref.HasWaiters())
			}
			if c.HasWaiters() && c.NextStartTime() != ref.NextStartTime() {
				t.Fatalf("trial %d, %s: NextStartTime %d, reference %d", trial, op, c.NextStartTime(), ref.NextStartTime())
			}
			if c.Stats() != ref.stats {
				t.Fatalf("trial %d, %s: Stats %+v, reference %+v", trial, op, c.Stats(), ref.stats)
			}
			if c.ReadLatencyHistogram() != ref.readLat {
				t.Fatalf("trial %d, %s: read-latency histograms differ", trial, op)
			}
		}

		tag := int64(0)
		enqueue := func(r Request) {
			tag++
			r.Tag = tag
			c.Request(r)
			ref.Request(r)
			check("Request")
		}
		reading := make([]bool, cores) // core has a read outstanding
		now := int64(0)
		for op := 0; op < 400; op++ {
			switch k := src.Intn(20); {
			case k == 0 && trial%2 == 0:
				c.Reset()
				ref.Reset()
				clear(reading)
				now = 0
				check("Reset")
			case k < 5: // one read from an idle core
				core := src.Intn(cores)
				if !reading[core] {
					reading[core] = true
					enqueue(Request{Core: core, Arrival: now + int64(src.Intn(3*int(slot)+1)), Kind: Read})
				}
			case k < 8: // one posted write
				enqueue(Request{Core: src.Intn(cores), Arrival: now + int64(src.Intn(4*int(slot)+1)), Kind: Write})
			case k < 10: // a same-arrival burst: several cores, or one core
				at := now + int64(src.Intn(2*int(slot)+1))
				one, n := src.Intn(2) == 0, 2+src.Intn(6)
				core := src.Intn(cores)
				for i := 0; i < n; i++ {
					if !one {
						core = src.Intn(cores)
					}
					enqueue(Request{Core: core, Arrival: at, Kind: Write})
				}
			default:
				if !c.HasWaiters() {
					continue
				}
				req, done := c.Serve()
				wantReq, wantDone := ref.Serve()
				if req != wantReq || done != wantDone {
					t.Fatalf("trial %d op %d: Serve = (%+v, %d), reference (%+v, %d)",
						trial, op, req, done, wantReq, wantDone)
				}
				check("Serve")
				if req.Kind == Read {
					reading[req.Core] = false
				}
				now = done - service
			}
		}
	}
}

// TestUBDProperty drives the controller with randomised traffic shaped
// like the platform generates it — each core has at most one blocking
// read in flight at a time, posted writebacks arrive at arbitrary points —
// and asserts that EVERY read completes within UpperBoundDelay of its
// arrival, across random geometries. This is the property the analysis
// mode's per-read charge rests on (and the runtime auditor's invariant
// A2); TestUBDHolds checks one adversarial backlog, this checks the claim
// wholesale.
func TestUBDProperty(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		cores := 1 + src.Intn(6)
		service := int64(20 + src.Intn(200))
		slot := int64(1 + src.Intn(30))
		c := New(service, slot, cores)
		ubd := c.UpperBoundDelay()

		nextRead := make([]int64, cores) // next read arrival per core (-1: in flight)
		for i := range nextRead {
			nextRead[i] = int64(src.Intn(50))
		}
		readsLeft := 200
		writesLeft := 60
		nextWrite := int64(src.Intn(50))

		earliest := func() (int64, int, bool) { // (arrival, core or -1 for write, any)
			at, who, any := int64(0), 0, false
			for i, a := range nextRead {
				if a < 0 || readsLeft == 0 {
					continue
				}
				if !any || a < at {
					at, who, any = a, i, true
				}
			}
			if writesLeft > 0 && (!any || nextWrite < at) {
				at, who, any = nextWrite, -1, true
			}
			return at, who, any
		}
		inject := func(at int64, who int) {
			if who < 0 {
				c.Request(Request{Core: src.Intn(cores), Arrival: at, Kind: Write})
				writesLeft--
				nextWrite = at + int64(src.Intn(4*int(slot)+1))
				return
			}
			c.Request(Request{Core: who, Arrival: at, Kind: Read})
			readsLeft--
			nextRead[who] = -1 // blocked until completion
		}

		for {
			// Enqueue every request that must be visible before the next
			// issue (Serve's contract: no earlier request arrives later).
			for {
				at, who, any := earliest()
				if !any {
					break
				}
				if c.HasWaiters() && at > c.NextStartTime() {
					break
				}
				inject(at, who)
			}
			if !c.HasWaiters() {
				if _, _, any := earliest(); !any {
					break
				}
				continue
			}
			req, done := c.Serve()
			if req.Kind == Read {
				if lat := done - req.Arrival; lat > ubd {
					t.Fatalf("trial %d (cores=%d service=%d slot=%d): read latency %d exceeds UBD %d",
						trial, cores, service, slot, lat, ubd)
				}
				// The core resumes and issues its next read later.
				nextRead[req.Core] = done + int64(src.Intn(3*int(slot)+1))
			}
		}
	}
}
