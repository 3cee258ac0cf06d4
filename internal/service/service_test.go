package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"efl/internal/sim"
)

// tinySrc is a fast measurement subject: ~1200 instructions with data
// accesses, so a 40-run campaign finishes in well under a second even on
// one worker.
const tinySrc = `
        movi r1, 0
        movi r2, 300
        movi r3, 0x40000000
    loop:
        ld   r4, 0(r3)
        addi r3, r3, 16
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
        .size 8192
`

// slowSrc is deliberately long-running (hundreds of thousands of
// instructions per run) so campaigns over it outlive short deadlines.
const slowSrc = `
        movi r1, 0
        movi r2, 200000
    loop:
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
`

func estimateBody(t *testing.T, src string, runs int, seed uint64, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{
		"program":  map[string]any{"source": src, "name": "test"},
		"config":   map[string]any{"mid": 500},
		"runs":     runs,
		"seed":     seed,
		"skip_iid": true,
	}
	for k, v := range extra {
		m[k] = v
	}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitUntil polls cond for up to 5 seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEstimateEndToEnd pins the primary contract: a fresh estimate
// computes, the identical request replays byte-identically from the
// cache, and the audit block covers every run with zero violations.
func TestEstimateEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := estimateBody(t, tinySrc, 40, 2, map[string]any{"audit": true})

	resp1, data1 := postJSON(t, ts.URL+"/v1/estimate", body)
	if resp1.StatusCode != 200 {
		t.Fatalf("fresh estimate: HTTP %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh estimate X-Cache = %q, want miss", got)
	}
	var est EstimateResponse
	if err := json.Unmarshal(data1, &est); err != nil {
		t.Fatalf("response: %v\n%s", err, data1)
	}
	if len(est.PWCET) != 1 || est.MaxObserved <= 0 {
		t.Fatalf("implausible estimate: %s", data1)
	}
	for _, v := range est.PWCET {
		if v < est.MaxObserved {
			t.Fatalf("pWCET %v below observed max %v", v, est.MaxObserved)
		}
	}
	var audit struct {
		Runs       int64 `json:"runs"`
		Checks     int64 `json:"checks"`
		Violations int64 `json:"violations"`
	}
	if err := json.Unmarshal(est.Audit, &audit); err != nil {
		t.Fatalf("audit block: %v", err)
	}
	if audit.Runs != 40 || audit.Checks == 0 || audit.Violations != 0 {
		t.Fatalf("audit block %+v: want 40 audited runs, >0 checks, 0 violations", audit)
	}

	resp2, data2 := postJSON(t, ts.URL+"/v1/estimate", body)
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("replay: HTTP %d X-Cache=%q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cached response differs from fresh:\n%s\n%s", data1, data2)
	}
}

// TestCachedMatchesFreshAcrossInstances pins the stronger determinism
// claim behind the cache: a brand-new server (fresh pools, fresh
// platforms) produces the same bytes the first server computed and
// cached. The cache is an optimisation, never an answer-changer.
func TestCachedMatchesFreshAcrossInstances(t *testing.T) {
	body := estimateBody(t, tinySrc, 40, 7, nil)
	_, ts1 := newTestServer(t, Options{})
	_, data1 := postJSON(t, ts1.URL+"/v1/estimate", body)
	_, ts2 := newTestServer(t, Options{})
	_, data2 := postJSON(t, ts2.URL+"/v1/estimate", body)
	if !bytes.Equal(data1, data2) {
		t.Fatalf("two instances disagree on the same request:\n%s\n%s", data1, data2)
	}
}

// TestSingleFlightCoalescing fires N identical requests concurrently and
// requires exactly ONE campaign: one miss, the rest coalesced onto it (or
// served from the cache if they straggle in after completion), all with
// identical bytes.
func TestSingleFlightCoalescing(t *testing.T) {
	const n = 4
	s, ts := newTestServer(t, Options{})
	body := estimateBody(t, tinySrc, 40, 3, nil)

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	caches := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			caches[i] = resp.Header.Get("X-Cache")
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: HTTP %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
	snap := s.Snapshot()
	if snap.Cache.Misses != 1 {
		t.Fatalf("%d campaigns ran for %d identical requests (want 1): %+v", snap.Cache.Misses, n, snap.Cache)
	}
	if snap.Cache.Misses+snap.Cache.Coalesced+snap.Cache.Hits != n {
		t.Fatalf("dispositions don't add up: %+v", snap.Cache)
	}
}

// TestBackpressure429 pins the bounded-queue contract with fully
// controlled jobs: worker busy + queue full means the next distinct
// request is refused immediately with 429 and a Retry-After hint —
// not queued, not blocked.
func TestBackpressure429(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := make(chan struct{})

	blockingRun := func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		<-release
		return []byte("{}"), nil
	}
	instantRun := func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return []byte("{}"), nil
	}

	recA := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.dispatch(recA, &Plan{Key: "job-a", Timeout: time.Minute, run: blockingRun}) }()
	// A is running (not queued) once the worker has drained the queue and
	// registered it in flight.
	waitUntil(t, "job A running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, inFlight := s.flight["job-a"]
		return inFlight && len(s.jobs) == 0
	})

	recB := httptest.NewRecorder()
	wg.Add(1)
	go func() { defer wg.Done(); s.dispatch(recB, &Plan{Key: "job-b", Timeout: time.Minute, run: instantRun}) }()
	waitUntil(t, "job B queued", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == 1
	})

	recC := httptest.NewRecorder()
	s.dispatch(recC, &Plan{Key: "job-c", Timeout: time.Minute, run: instantRun})
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", recC.Code)
	}
	if recC.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	wg.Wait()
	if recA.Code != 200 || recB.Code != 200 {
		t.Fatalf("released jobs failed: A=%d B=%d", recA.Code, recB.Code)
	}
	if got := s.Snapshot().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestDeadlineQuarantinesPool pins the 504 path AND its hygiene: a
// campaign killed by its deadline answers 504, the worker's pool is
// quarantined (no half-run platform survives into the next request), and
// the server keeps serving.
func TestDeadlineQuarantinesPool(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	body := estimateBody(t, slowSrc, 2000, 2, map[string]any{"timeout_ms": 100})
	resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out campaign answered %d: %s", resp.StatusCode, data)
	}

	// Quarantine-clean: the failed job discarded every pooled platform.
	s.mu.Lock()
	var pooled, quarantined int
	for _, p := range s.pools {
		pooled += p.Size()
		quarantined += p.Quarantined()
	}
	s.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d platforms survived a failed job's quarantine", pooled)
	}
	if quarantined == 0 {
		t.Fatal("deadline failure quarantined nothing — the corrupt platform was kept")
	}

	// The server is still healthy: a fresh fast request succeeds.
	resp2, data2 := postJSON(t, ts.URL+"/v1/estimate", estimateBody(t, tinySrc, 40, 2, nil))
	if resp2.StatusCode != 200 {
		t.Fatalf("request after quarantine: HTTP %d: %s", resp2.StatusCode, data2)
	}
}

// TestPanicIsolation: a panicking job answers 500 and does not take the
// worker (or server) down.
func TestPanicIsolation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.dispatch(rec, &Plan{Key: "job-panic", Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		panic("boom")
	}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking job answered %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("panic message lost: %s", rec.Body.String())
	}
	rec2 := httptest.NewRecorder()
	s.dispatch(rec2, &Plan{Key: "job-after-panic", Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return []byte("{}"), nil
	}})
	if rec2.Code != 200 {
		t.Fatalf("server dead after panic: %d", rec2.Code)
	}
}

// TestGracefulDrain pins shutdown semantics: Close lets the in-flight job
// finish and answer 200, while new work is refused with 503.
func TestGracefulDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	release := make(chan struct{})

	recA := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.dispatch(recA, &Plan{Key: "job-drain", Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
			<-release
			return []byte("{}"), nil
		}})
	}()
	waitUntil(t, "job running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.flight["job-drain"]
		return ok && len(s.jobs) == 0
	})

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitUntil(t, "draining flag", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	recB := httptest.NewRecorder()
	s.dispatch(recB, &Plan{Key: "job-late", Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return []byte("{}"), nil
	}})
	if recB.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work: %d", recB.Code)
	}

	close(release)
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight job finished")
	}
	if recA.Code != 200 {
		t.Fatalf("in-flight job dropped during drain: %d", recA.Code)
	}
}

// TestScheduleEndpoint covers the feasibility route: a packable task set
// reports per-slot slack, an unpackable one is a 422, and the satellite
// validation fixes surface as 400s.
func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	good, _ := json.Marshal(map[string]any{
		"mif_cycles": 1_000_000,
		"tasks": []map[string]any{
			{"name": "a", "pwcet": 400_000},
			{"name": "b", "pwcet": 300_000},
		},
	})
	resp, data := postJSON(t, ts.URL+"/v1/schedule", good)
	if resp.StatusCode != 200 {
		t.Fatalf("schedule: HTTP %d: %s", resp.StatusCode, data)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Feasible || len(sr.Slots) != 2 {
		t.Fatalf("unexpected schedule result: %s", data)
	}
	for _, slot := range sr.Slots {
		if !slot.Fits || slot.Slack <= 0 {
			t.Fatalf("slot should fit with slack: %+v", slot)
		}
	}

	overfull, _ := json.Marshal(map[string]any{
		"mif_cycles": 100,
		"tasks":      []map[string]any{{"name": "big", "pwcet": 1_000_000}},
	})
	if resp, _ := postJSON(t, ts.URL+"/v1/schedule", overfull); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unpackable task set: HTTP %d, want 422", resp.StatusCode)
	}
}

// TestStaticEndpoint covers the analytical route, including the
// negative-gap soundness fix surfacing as a 400 at the service boundary.
func TestStaticEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := map[string]any{
		"program": map[string]any{"source": tinySrc, "name": "tiny"},
		"model":   map[string]any{"sets": 64, "ways": 4, "hit_latency": 10, "miss_latency": 100},
		"trace":   map[string]any{"instruction": true, "data": true},
	}
	good, _ := json.Marshal(base)
	resp, data := postJSON(t, ts.URL+"/v1/static", good)
	if resp.StatusCode != 200 {
		t.Fatalf("static: HTTP %d: %s", resp.StatusCode, data)
	}
	var st StaticResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.ColdMisses == 0 || len(st.PWCET) != 1 {
		t.Fatalf("implausible static result: %s", data)
	}

	// The satellite bugfix at the HTTP boundary: interference with a
	// non-positive gap must be rejected up front, not silently lower the
	// bound.
	bad := map[string]any{}
	for k, v := range base {
		bad[k] = v
	}
	bad["evictions_per_cycle"] = 0.001
	bad["mean_gap_cycles"] = -500
	badBody, _ := json.Marshal(bad)
	resp, data = postJSON(t, ts.URL+"/v1/static", badBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative gap accepted: HTTP %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "mean_gap_cycles") {
		t.Fatalf("error does not name the offending field: %s", data)
	}
}

// TestRequestValidation sweeps the 400 paths: every malformed request is
// refused before any simulation work.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		body map[string]any
		want string // substring of the error
	}{
		{"no program", "/v1/estimate", map[string]any{"runs": 40}, "program"},
		{"unknown benchmark", "/v1/estimate",
			map[string]any{"program": map[string]any{"benchmark": "zz"}}, "unknown benchmark"},
		{"benchmark and source", "/v1/estimate",
			map[string]any{"program": map[string]any{"benchmark": "CN", "source": "halt"}}, "mutually exclusive"},
		{"too few runs", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"}, "runs": 10}, "runs"},
		{"bad probability", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"}, "probabilities": []float64{2}}, "probabilities"},
		{"bad config", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"}, "config": map[string]any{"cores": 0}}, "config"},
		{"efl and partitioning", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"},
				"config": map[string]any{"mid": 500, "partition_ways": []int{2, 2, 2, 2}}}, "config"},
		{"negative timeout", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"}, "timeout_ms": -1}, "timeout_ms"},
		{"unknown field", "/v1/estimate",
			map[string]any{"program": map[string]any{"source": "halt"}, "bogus": 1}, "bogus"},
		{"no tasks", "/v1/schedule", map[string]any{"mif_cycles": 100}, "tasks"},
		{"duplicate task", "/v1/schedule",
			map[string]any{"mif_cycles": 100, "tasks": []map[string]any{
				{"name": "a", "pwcet": 10}, {"name": "a", "pwcet": 20}}}, "duplicate"},
		{"non-positive pwcet", "/v1/schedule",
			map[string]any{"mif_cycles": 100, "tasks": []map[string]any{{"name": "a", "pwcet": 0}}}, "pwcet"},
		{"no mif", "/v1/schedule",
			map[string]any{"tasks": []map[string]any{{"name": "a", "pwcet": 10}}}, "mif_cycles"},
		{"no trace kinds", "/v1/static",
			map[string]any{"program": map[string]any{"source": "halt"},
				"model": map[string]any{"sets": 64, "ways": 4, "hit_latency": 10, "miss_latency": 100}}, "trace"},
		{"bad model", "/v1/static",
			map[string]any{"program": map[string]any{"source": "halt"},
				"model": map[string]any{"sets": 0, "ways": 4, "hit_latency": 10, "miss_latency": 100},
				"trace": map[string]any{"instruction": true}}, "geometry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, data := postJSON(t, ts.URL+tc.path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("error %q does not mention %q", data, tc.want)
			}
		})
	}
}

// TestMethodAndHealth covers the trimmings: GET on a compute endpoint is
// 405, /healthz flips to 503 while draining, /metrics is live JSON.
func TestMethodAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if snap.QueueCapacity == 0 {
		t.Fatalf("implausible metrics snapshot: %+v", snap)
	}

	s.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestIIDGateSurfacesAs422 pins the run-error path: a statistically valid
// request whose sample fails the i.i.d. gate is the client's problem
// (unanalysable input), reported as 422 with the gate's verdict — and the
// failed campaign must not poison the cache.
func TestIIDGateSurfacesAs422(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.dispatch(rec, &Plan{Key: "job-422", Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return nil, fmt.Errorf("mbpta: sample failed i.i.d. tests")
	}})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("run error answered %d, want 422", rec.Code)
	}
	s.mu.Lock()
	_, cached := s.cache.Get("job-422")
	s.mu.Unlock()
	if cached {
		t.Fatal("failed campaign was cached")
	}
}

// TestEstimateConverge: a converge request runs the streaming
// estimator, stops at or before the run ceiling, and reports the runs it
// actually consumed. Per-run seeds are derived from the run index, so two
// fresh servers answering the same request must produce byte-identical
// bodies.
func TestEstimateConverge(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Options{})
		body := estimateBody(t, tinySrc, 300, 7, map[string]any{
			"converge": true, "audit": true,
		})
		resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, data)
		}
		var er EstimateResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		if er.Runs <= 0 || er.Runs > 300 {
			t.Fatalf("server %d: Runs = %d, want in (0,300]", i, er.Runs)
		}
		if i == 0 {
			t.Logf("converged at %d runs (ceiling 300)", er.Runs)
		}
		bodies = append(bodies, data)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("converge responses differ across fresh servers:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestBatchFieldRejected: "batch" is not a request field, so a request
// carrying it — with or without converge — is a client error naming the
// field, answered before any simulation runs.
func TestBatchFieldRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, extra := range []map[string]any{
		{"batch": 4},
		{"batch": 8, "converge": true},
	} {
		body := estimateBody(t, tinySrc, 40, 2, extra)
		resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400: %s", extra, resp.StatusCode, data)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, `"batch"`) {
			t.Fatalf("%v: error should name the batch field: %s", extra, data)
		}
	}
	snap := s.Snapshot()
	if c := snap.Cache; c.Misses+c.Hits+c.Coalesced != 0 {
		t.Fatalf("rejected requests reached the result cache: %+v", c)
	}
	for i, w := range snap.Workers {
		if w.Jobs != 0 {
			t.Fatalf("worker %d ran %d jobs for rejected requests", i, w.Jobs)
		}
	}
}

// TestHierarchyOverride pins the multi-level config surface: a request can
// replace the default two-level layout with an explicit hierarchy (plus a
// shared-data window), the campaign runs end-to-end on it, and malformed
// hierarchies are rejected as client errors before any simulation work.
func TestHierarchyOverride(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	threeLevel := []map[string]any{
		{"name": "L1", "size_bytes": 4096, "ways": 4, "latency_cycles": 1},
		{"name": "L2", "size_bytes": 16384, "ways": 4, "shared": true, "latency_cycles": 6},
		{"name": "LLC", "size_bytes": 65536, "ways": 8, "shared": true, "latency_cycles": 10},
	}
	body := estimateBody(t, tinySrc, 40, 2, map[string]any{
		"config": map[string]any{"mid": 500, "hierarchy": threeLevel, "shared_data_bytes": 256},
		"audit":  true,
	})
	resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("three-level estimate: HTTP %d: %s", resp.StatusCode, data)
	}
	var est EstimateResponse
	if err := json.Unmarshal(data, &est); err != nil {
		t.Fatalf("response: %v\n%s", err, data)
	}
	if est.Runs != 40 || est.MaxObserved <= 0 {
		t.Fatalf("implausible three-level estimate: %s", data)
	}

	// The flat default must live in a different cache entry than the
	// explicit hierarchy (different resolved identity).
	flat := estimateBody(t, tinySrc, 40, 2, map[string]any{"audit": true})
	respFlat, dataFlat := postJSON(t, ts.URL+"/v1/estimate", flat)
	if respFlat.StatusCode != http.StatusOK {
		t.Fatalf("flat estimate: HTTP %d: %s", respFlat.StatusCode, dataFlat)
	}
	if respFlat.Header.Get("X-Cache") != "miss" {
		t.Fatalf("flat estimate should not share the hierarchy request's cache entry")
	}

	bad := []struct {
		name   string
		config map[string]any
		want   string
	}{
		{"L1 shared", map[string]any{"hierarchy": []map[string]any{
			{"name": "L1", "size_bytes": 4096, "ways": 4, "shared": true, "latency_cycles": 1},
			{"name": "LLC", "size_bytes": 65536, "ways": 8, "shared": true, "latency_cycles": 10},
		}}, "shared"},
		{"unknown policy", map[string]any{"hierarchy": []map[string]any{
			{"name": "L1", "size_bytes": 4096, "ways": 4, "latency_cycles": 1, "policy": "rr"},
			{"name": "LLC", "size_bytes": 65536, "ways": 8, "shared": true, "latency_cycles": 10},
		}}, "policy"},
		{"flat knobs alongside hierarchy", map[string]any{
			"llc_ways": 4, "hierarchy": threeLevel,
		}, "mutually exclusive"},
		{"bad shared window", map[string]any{"shared_data_bytes": 24}, "multiple"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			body := estimateBody(t, tinySrc, 40, 2, map[string]any{"config": tc.config})
			resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("error %s should mention %q", data, tc.want)
			}
		})
	}
}
