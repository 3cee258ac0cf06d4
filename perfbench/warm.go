package main

// estimate-warm: a 2-node in-process fleet (one worker per node, no
// shared store). Set-up uploads the traces to both nodes and fills every
// key of a 30-key set once; the client then sends only to node-0. Keys
// homed on node-0 are local LRU hits, keys homed on node-1 take a
// forward hop and are answered by node-1's LRU. No simulation runs in the
// timed phase: it measures planning, program rebuilds, cache lookup,
// HTTP and the forward hop.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"efl/internal/cluster"
	"efl/internal/service"
)

type warm struct {
	e     *env
	refs  *refTable
	fleet *cluster.Fleet
	cl    *http.Client
	ts    traceSet
	keys  []estimate
	seq   []int
	// forwarded marks the operations of the sequence whose key is homed
	// on node-1.
	forwarded []bool
}

// warmReps is the sequence length in shuffled rounds over the 30 keys.
const warmReps = 100

// timing: one round per 2 s of budget, at least 2, sharing setupReps
// set-ups. A round takes 1–1.5 s on the reference host.
func (w *warm) timing(seconds int) (int, bool) { return max(2, seconds/2), false }

func (w *warm) setup() error {
	ts, err := generateTraces()
	if err != nil {
		return err
	}
	w.ts = ts
	w.keys, err = warmKeySet(w.e.seed, ts, w.refs)
	if err != nil {
		return err
	}
	w.fleet, err = cluster.StartFleet(cluster.FleetOptions{Nodes: 2, Service: service.Options{Workers: 1}})
	if err != nil {
		return err
	}
	w.cl = newClient()
	for _, u := range w.fleet.URLs {
		if err := uploadTraces(w.cl, u, ts); err != nil {
			return err
		}
	}
	for _, k := range w.keys {
		rp, err := checkedPost(w.cl, w.fleet.URLs[0]+"/v1/estimate", k, w.refs)
		if err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		if want := wantRoute(w.refs.Entries[k.ID].Home); rp.route != want {
			return fmt.Errorf("fill %s: route %q, want %q", k.ID, rp.route, want)
		}
	}
	reps := warmReps
	if w.e.smoke {
		reps = 2
	}
	w.seq = warmSequence(w.e.seed, reps, len(w.keys))
	w.forwarded = make([]bool, len(w.seq))
	for i, ki := range w.seq {
		w.forwarded[i] = w.refs.Entries[w.keys[ki].ID].Home != "node-0"
	}
	return nil
}

// wantRoute is the route node-0 must take for a key homed on home.
func wantRoute(home string) string {
	if home == "node-0" {
		return cluster.RouteLocal
	}
	return cluster.RouteForward
}

func (w *warm) close() {
	if w.fleet != nil {
		w.fleet.Close()
		w.fleet = nil
	}
	if w.cl != nil {
		w.cl.CloseIdleConnections()
	}
}

func (w *warm) pass(t *tally, d *runDigest) error {
	url := w.fleet.URLs[0] + "/v1/estimate"
	for _, ki := range w.seq {
		k := w.keys[ki]
		t0 := time.Now()
		rp, err := checkedPost(w.cl, url, k, w.refs)
		dt := time.Since(t0)
		if err != nil {
			t.fail(err)
			continue
		}
		if want := wantRoute(w.refs.Entries[k.ID].Home); rp.route != want {
			t.fail(fmt.Errorf("%s: route %q, want %q", k.ID, rp.route, want))
			continue
		}
		t.ok(dt)
		d.add(k.ID, digest(rp.body))
	}
	return nil
}

// classes splits the best-of-rounds latencies into local and forwarded
// hits.
func (w *warm) classes(best []time.Duration) map[string]metric {
	var local, fwd []time.Duration
	for i, dt := range best {
		switch {
		case dt < 0:
		case w.forwarded[i]:
			fwd = append(fwd, dt)
		default:
			local = append(local, dt)
		}
	}
	lu, fu := millis(local), millis(fwd)
	return map[string]metric{
		"hit_local_p50_us":   {1e3 * quantile(lu, 0.5), "us"},
		"hit_local_p90_us":   {1e3 * quantile(lu, 0.9), "us"},
		"hit_forward_p50_us": {1e3 * quantile(fu, 0.5), "us"},
		"hit_forward_p90_us": {1e3 * quantile(fu, 0.9), "us"},
	}
}

func (w *warm) simInstr() float64 { return 0 }

// tracedPass repeats the sequence without the client's HTTP hop. A key
// homed on node-0 is planned and executed directly on node-0's service
// (request → service.plan → cluster.ring_sequence → service.execute_hit);
// a key homed on node-1 is served by node-0's handler into a recorder, so
// the forward hop to node-1 is real (request → cluster.route_forward).
func (w *warm) tracedPass(tr *tracer, t *tally) (map[string]metric, error) {
	n0 := w.fleet.Nodes[0]
	svc0, h0 := n0.Service(), n0.Handler()
	before := w.hitCounts()
	var ms0, ms1 runtime.MemStats
	forwards := 0
	runtime.ReadMemStats(&ms0)
	for i, ki := range w.seq {
		k := w.keys[ki]
		root := tr.begin("request", i, -1)
		var status int
		var body []byte
		if w.refs.Entries[k.ID].Home == "node-0" {
			sp := tr.begin("service.plan", i, root)
			pl, err := svc0.PlanRequest("/v1/estimate", k.Body)
			tr.end(sp, 1)
			if err != nil {
				tr.end(root, 1)
				t.fail(fmt.Errorf("%s: plan: %v", k.ID, err))
				continue
			}
			sr := tr.begin("cluster.ring_sequence", i, root)
			seq := n0.Sequence(pl.Key)
			tr.end(sr, 1)
			sx := tr.begin("service.execute_hit", i, root)
			b, _, serr := svc0.Execute(pl)
			tr.end(sx, 1)
			status, body = http.StatusOK, b
			if serr != nil {
				status, body = serr.Status, errorBody(serr.Msg)
			} else if seq[0] != n0.ID() {
				status = http.StatusMisdirectedRequest
			}
		} else {
			forwards++
			sf := tr.begin("cluster.route_forward", i, root)
			rec := httptest.NewRecorder()
			h0.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(k.Body)))
			tr.end(sf, 1)
			status, body = rec.Code, rec.Body.Bytes()
			if r := rec.Header().Get(cluster.RouteHeader); r != cluster.RouteForward {
				status = http.StatusMisdirectedRequest
			}
		}
		tr.end(root, 1)
		if err := w.refs.check(k.ID, status, body); err != nil {
			t.fail(err)
			continue
		}
		t.ok(tr.spans[root].dur())
	}
	runtime.ReadMemStats(&ms1)
	after := w.hitCounts()
	n := float64(len(w.seq))
	// Ring lookups take well under a microsecond; time a batch of them on
	// the key set so the clock resolution does not dominate.
	sr := tr.begin("cluster.ring_sequence_batch", -1, -1)
	var keys []string
	for _, k := range w.keys {
		if pl, err := svc0.PlanRequest("/v1/estimate", k.Body); err == nil {
			keys = append(keys, pl.Key)
		}
	}
	lookups := 0
	for rep := 0; rep < 200; rep++ {
		for _, key := range keys {
			n0.Sequence(key)
			lookups++
		}
	}
	tr.end(sr, float64(lookups))
	return map[string]metric{
		"service.plan_us":              {median(tr.perUnit("service.plan", time.Microsecond)), "us"},
		"service.execute_hit_us":       {median(tr.perUnit("service.execute_hit", time.Microsecond)), "us"},
		"service.alloc_kb_per_request": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n, "KiB"},
		"service.cache_hit_ratio":      {ratio(after[0]-before[0], after[1]-before[1]), "ratio"},
		"cluster.route_forward_us":     {median(tr.perUnit("cluster.route_forward", time.Microsecond)), "us"},
		"cluster.ring_sequence_ns":     {median(tr.perUnit("cluster.ring_sequence_batch", time.Nanosecond)), "ns"},
		"cluster.forward_share":        {float64(forwards) / n, "ratio"},
	}, nil
}

// hitCounts sums (hits+coalesced, lookups) over both nodes' services.
func (w *warm) hitCounts() [2]float64 {
	var out [2]float64
	for _, nd := range w.fleet.Nodes {
		c := nd.Service().Snapshot().Cache
		out[0] += float64(c.Hits + c.Coalesced)
		out[1] += float64(c.Hits + c.Coalesced + c.Misses)
	}
	return out
}

func (w *warm) suite() []namedProg {
	var progs []namedProg
	for _, s := range warmSlots() {
		if s.Kind.Hierarchy {
			continue
		}
		if prog, err := buildProgram(s.Prog, w.ts); err == nil {
			progs = append(progs, namedProg{s.Prog.label(), prog})
		}
	}
	return progs
}
