package main

// estimate-cold: one in-process server with one worker; the client sends
// a fixed sequence of /v1/estimate requests, each with a fresh key, so
// every request runs a campaign. Almost all of the time is the analysis
// path: trace replay, the analysis event loop, the batch engine on
// converged requests and the auditor.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"efl/internal/bench"
	"efl/internal/cpu"
	"efl/internal/isa"
	"efl/internal/service"
	"efl/internal/sim"
	"efl/internal/workload"
)

// cold is the estimate-cold workload.
type cold struct {
	e    *env
	refs *refTable
	srv  *server
	cl   *http.Client
	ts   traceSet
	seq  []estimate
	// runs counts the simulated runs of the last pass per program label.
	runs map[string]int
}

// coldPasses is the sequence length in passes of 36 requests.
const coldPasses = 1

// timing: one round per 5 s of budget, at least 2, each on a fresh
// server. A round takes 5–8 s on the reference host, plus its set-up.
// BENCHMARK.json does not run this workload (see README.md, Host noise).
func (c *cold) timing(seconds int) (int, bool) { return max(2, seconds/5), true }

func (c *cold) setup() error {
	ts, err := generateTraces()
	if err != nil {
		return err
	}
	c.ts = ts
	c.srv, err = startServer(service.Options{Workers: 1})
	if err != nil {
		return err
	}
	c.cl = newClient()
	if err := uploadTraces(c.cl, c.srv.url, ts); err != nil {
		return err
	}
	for _, w := range coldWarmups(ts) {
		rp, err := post(c.cl, c.srv.url+"/v1/estimate", w.Body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", w.ID, err)
		}
		if rp.status != http.StatusOK && rp.status != http.StatusUnprocessableEntity {
			return fmt.Errorf("warm-up %s: HTTP %d %s", w.ID, rp.status, rp.body)
		}
	}
	if c.e.smoke {
		c.seq = coldSequence(c.e.seed, 1, ts)[:4]
	} else {
		c.seq = coldSequence(c.e.seed, coldPasses, ts)
	}
	return nil
}

func (c *cold) close() {
	if c.srv != nil {
		c.srv.close()
		c.srv = nil
	}
	if c.cl != nil {
		c.cl.CloseIdleConnections()
	}
}

// runsOf reads the run count from an estimate response body.
func runsOf(body []byte) int {
	var r struct {
		Runs int `json:"runs"`
	}
	if json.Unmarshal(body, &r) != nil {
		return 0
	}
	return r.Runs
}

func (c *cold) pass(t *tally, d *runDigest) error {
	c.runs = map[string]int{}
	url := c.srv.url + "/v1/estimate"
	for _, e := range c.seq {
		t0 := time.Now()
		rp, err := checkedPost(c.cl, url, e, c.refs)
		dt := time.Since(t0)
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok(dt)
		d.add(e.ID, digest(rp.body))
		if rp.status == http.StatusOK {
			c.runs[e.Prog.label()] += runsOf(rp.body)
		}
	}
	return nil
}

// simInstr is Σ runs × recorded trace length: every replayed run
// retires the program's whole trace.
func (c *cold) simInstr() float64 {
	var sum float64
	for _, p := range coldPrograms() {
		if n := c.runs[p.label()]; n > 0 {
			sum += float64(n * c.traceLen(p))
		}
	}
	return sum
}

// traceLen records p's architectural trace and returns its length.
func (c *cold) traceLen(p progRef) int {
	prog, err := buildProgram(p, c.ts)
	if err != nil {
		return 0
	}
	tr, err := cpu.RecordTrace(prog, sim.DefaultConfig().MaxInstrPerCore)
	if err != nil {
		return 0
	}
	return tr.Len()
}

// tracedPass plans each request and executes it on the same server
// without the HTTP hop: request → service.plan → service.execute_miss.
func (c *cold) tracedPass(tr *tracer, t *tally) (map[string]metric, error) {
	before := c.srv.svc.Snapshot().Cache
	for i, e := range c.seq {
		root := tr.begin("request", i, -1)
		sp := tr.begin("service.plan", i, root)
		pl, err := c.srv.svc.PlanRequest("/v1/estimate", e.Body)
		tr.end(sp, 1)
		if err != nil {
			tr.end(root, 1)
			t.fail(fmt.Errorf("%s: plan: %v", e.ID, err))
			continue
		}
		sx := tr.begin("service.execute_miss", i, root)
		body, _, serr := c.srv.svc.Execute(pl)
		tr.end(sx, 1)
		tr.end(root, 1)
		status := http.StatusOK
		if serr != nil {
			status = serr.Status
			body = errorBody(serr.Msg)
		}
		if err := c.refs.check(e.ID, status, body); err != nil {
			t.fail(err)
			continue
		}
		t.ok(tr.spans[root].dur())
	}
	after := c.srv.svc.Snapshot().Cache
	lookups := (after.Hits + after.Misses + after.Coalesced) - (before.Hits + before.Misses + before.Coalesced)
	out := map[string]metric{
		"service.plan_us":         {median(tr.perUnit("service.plan", time.Microsecond)), "us"},
		"service.execute_miss_ms": {median(tr.perUnit("service.execute_miss", time.Millisecond)), "ms"},
		"service.cache_hit_ratio": {ratio(float64(after.Hits-before.Hits+after.Coalesced-before.Coalesced), float64(lookups)), "ratio"},
		"cpu.trace_mib_per_run":   {c.traceMiBPerRun(), "MiB"},
	}
	return out, nil
}

// traceMiBPerRun is the mean replay-trace bytes one run of the sequence
// streams, weighted by each request's program.
func (c *cold) traceMiBPerRun() float64 {
	lens := map[string]int{}
	var sum float64
	for _, e := range c.seq {
		l := e.Prog.label()
		if _, ok := lens[l]; !ok {
			lens[l] = c.traceLen(e.Prog)
		}
		sum += float64(lens[l]) * traceEntryBytes
	}
	return sum / float64(len(c.seq)) / (1 << 20)
}

// streamLanes is how many lane runs the batch engine (8 lanes) simulates
// to deliver n consumed runs under a ceiling of maxRuns.
func streamLanes(n, maxRuns int) int {
	const k = 8
	lanes := 0
	for done := 0; done < n; {
		w := min(k, maxRuns-done)
		lanes += w
		done += w
	}
	return lanes
}

// errorBody renders an error envelope exactly as the service writes it.
func errorBody(msg string) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(struct {
		Error string `json:"error"`
	}{msg})
	return b.Bytes()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *cold) suite() []namedProg {
	progs := make([]namedProg, 0, 18)
	for _, p := range coldPrograms() {
		prog, err := buildProgram(p, c.ts)
		if err == nil {
			progs = append(progs, namedProg{p.label(), prog})
		}
	}
	return progs
}

// buildProgram constructs a request's program the way the service
// resolves it.
func buildProgram(p progRef, ts traceSet) (*isa.Program, error) {
	switch {
	case p.Source > 0:
		return isa.Assemble(p.label(), sourceText(p.Source))
	case p.Code != "":
		spec, err := bench.ByCode(p.Code)
		if err != nil {
			return nil, err
		}
		return spec.Build(), nil
	default:
		return workload.Replay("trace:"+ts.hashes[p.Trace][:12], ts.data[p.Trace])
	}
}
