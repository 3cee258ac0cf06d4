// Package service exposes the analysis toolkit as a long-running
// estimation server: pWCET estimation campaigns (POST /v1/estimate),
// schedule feasibility (POST /v1/schedule) and the static cross-check
// (POST /v1/static) over HTTP JSON.
//
// The server is a thin, hardened shell around the campaign machinery the
// repository already has — the same pieces the batch experiment driver
// uses, arranged for a request/response lifecycle:
//
//   - Execution goes through runner.MapResilient with per-worker sim.Pool
//     state: a panicking or failing job quarantines the worker's pooled
//     platforms (nothing it touched can be trusted) and never takes the
//     server down.
//   - Results are pure functions of the canonical request identity
//     (simulator determinism), so finished bodies live in an LRU keyed by
//     a content-addressed hash, and identical in-flight requests coalesce
//     onto one campaign (single-flight).
//   - The work queue is bounded: when it is full the server answers 429
//     with Retry-After instead of queueing unboundedly — backpressure is
//     part of the interface, matching the repo-wide graceful-degradation
//     stance (a saturated estimation service must say so, not fall over).
//   - Every request runs under its own deadline, independent of the HTTP
//     connection: a client that disconnects does not waste the campaign
//     (the result still lands in the cache).
//
// Close drains: queued jobs finish, new requests get 503.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"efl"
	"efl/internal/lru"
	"efl/internal/metrics"
	"efl/internal/runner"
	"efl/internal/sched"
	"efl/internal/sim"
)

// MaxBodyBytes bounds request bodies (assembler sources dominate; 4 MiB
// is far above any legitimate request). Exported so the cluster router,
// which reads bodies before planning them, applies the same bound.
const MaxBodyBytes = 4 << 20

// Options configures a Server. The zero value selects sensible defaults.
type Options struct {
	// Workers is the number of campaign workers, each owning one sim.Pool
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; a full queue answers 429
	// (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache's entry count (default 256).
	CacheEntries int
	// CacheBytes bounds the LRU result cache's total body bytes (default
	// 64 MiB). The entry cap alone is not a memory bound: a few large
	// audited estimate bodies can exhaust RAM well inside it.
	CacheBytes int64
	// MaxRuns caps the per-request measurement-run count (default 2000).
	MaxRuns int
	// DefaultTimeout bounds requests that set no timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied timeouts (default 5m).
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// TraceStore, when set, shares uploaded traces fleet-wide (the cluster
	// wires its DirStore here), so an estimate by trace_hash plans on any
	// node, not just the one that took the upload.
	TraceStore BlobStore
	// TraceCacheEntries and TraceCacheBytes bound the in-memory trace LRU
	// (defaults 64 entries, 64 MiB).
	TraceCacheEntries int
	TraceCacheBytes   int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 2000
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.TraceCacheEntries <= 0 {
		o.TraceCacheEntries = 64
	}
	if o.TraceCacheBytes <= 0 {
		o.TraceCacheBytes = 64 << 20
	}
	return o
}

// job is one unit of queued work: the closure computing the canonical
// response body, the deadline it runs under, and the slot its outcome is
// published through.
type job struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context, pool *sim.Pool) ([]byte, error)
	done   chan struct{} // closed when the outcome fields are final

	// Outcome (valid after done closes; written under the server mutex).
	body     []byte
	status   runner.Status
	errMsg   string
	timedOut bool
}

// WorkerStat is one worker's lifetime accounting (exposed via /metrics).
type WorkerStat struct {
	Jobs        uint64  `json:"jobs"`
	BusySeconds float64 `json:"busy_seconds"`
	Quarantined int     `json:"quarantined"`
}

// Server is the estimation service. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	opts  Options
	start time.Time
	jobs  chan *job
	pools []*sim.Pool
	wg    sync.WaitGroup

	mu        sync.Mutex
	draining  bool
	cache     *lru.Cache[string, []byte]
	flight    map[string]*job
	requests  map[string]uint64
	rejected  uint64
	cacheHits uint64
	cacheMiss uint64
	coalesced uint64
	workers   []WorkerStat
	latency   metrics.Histogram // end-to-end request latency, microseconds

	// traces is the uploaded-trace registry (raw bytes keyed by their
	// SHA-256), with its own accounting.
	traces           *lru.Cache[string, []byte]
	traceUploads     uint64
	traceHits        uint64
	traceMiss        uint64
	traceStoreErrors uint64

	// programs memoises program resolution per ProgramSpec (see
	// buildProgram).
	programs *lru.Cache[ProgramSpec, resolvedProgram]
}

// New starts a Server with opts.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		start:    time.Now(),
		jobs:     make(chan *job, opts.QueueDepth),
		pools:    make([]*sim.Pool, opts.Workers),
		cache:    newResultCache(opts.CacheEntries, opts.CacheBytes),
		traces:   newResultCache(opts.TraceCacheEntries, opts.TraceCacheBytes),
		programs: newProgramMemo(),
		flight:   map[string]*job{},
		requests: map[string]uint64{},
		workers:  make([]WorkerStat, opts.Workers),
	}
	for i := range s.pools {
		s.pools[i] = sim.NewPool()
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Close drains the server: no new jobs are accepted (new requests answer
// 503), queued jobs run to completion, and the workers exit. Safe to call
// once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/estimate", s.post(s.handleCompute))
	mux.HandleFunc("/v1/schedule", s.post(s.handleCompute))
	mux.HandleFunc("/v1/static", s.post(s.handleCompute))
	mux.HandleFunc("/v1/trace", s.post(s.handleTrace))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// post wraps a handler with the method check and request accounting.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		s.mu.Lock()
		s.requests[r.URL.Path]++
		s.mu.Unlock()
		h(w, r)
	}
}

// worker is one campaign worker: it owns pool s.pools[id] and runs queued
// jobs through the fail-soft engine. A failed or panicked job leaves the
// pool quarantined (emptied) via MapResilient's discard hook, so corrupt
// platform state never leaks into the next request.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	pool := s.pools[id]
	for jb := range s.jobs {
		t0 := time.Now()
		outs, _ := runner.MapResilient(context.Background(),
			runner.ResilientOptions{Options: runner.Options{Parallelism: 1}},
			func() *sim.Pool { return pool },
			func(p *sim.Pool) { p.QuarantineAll() },
			[]*job{jb},
			func(_ context.Context, p *sim.Pool, _ int, item *job) ([]byte, error) {
				// The job's OWN context carries the request deadline. It is
				// deliberately not MapResilient's campaign context: a
				// deadline there would read as campaign cancellation and
				// skip the discard path, while here it is an ordinary job
				// failure — the worker state is quarantined and the server
				// lives on.
				return item.run(item.ctx, p)
			})
		oc := outs[0]
		jb.cancel()
		s.mu.Lock()
		jb.status, jb.errMsg = oc.Status, oc.Error
		jb.timedOut = !oc.OK() && errors.Is(jb.ctx.Err(), context.DeadlineExceeded)
		if oc.OK() {
			jb.body = oc.Value
			s.cache.Put(jb.key, oc.Value)
		}
		delete(s.flight, jb.key)
		s.workers[id].Jobs++
		s.workers[id].BusySeconds += time.Since(t0).Seconds()
		s.workers[id].Quarantined = pool.Quarantined()
		s.mu.Unlock()
		close(jb.done)
	}
}

// Plan is a validated, canonically-resolved compute request ready to
// execute: the content-addressed cache key, the effective deadline, and
// the campaign closure producing the canonical response body. Plans are
// built by PlanRequest and executed by Execute (or dispatch, its HTTP
// shell); the cluster router builds Plans to learn a request's key — and
// therefore its home node — without running anything.
type Plan struct {
	// Key is the SHA-256 cache key of the resolved request identity.
	Key string
	// Timeout is the effective per-request deadline.
	Timeout time.Duration
	run     func(ctx context.Context, pool *sim.Pool) ([]byte, error)
}

// Chaos wraps the plan's campaign closure with a hook that runs inside
// the job, before the real work. A hook that panics exercises the
// service's panic-isolation path end-to-end — this is the seam the
// cluster chaos harness injects the fault.JobPanic class through. The
// hook runs only if the job actually executes (a cache hit or coalesced
// wait never reaches it).
func (p *Plan) Chaos(hook func()) {
	inner := p.run
	p.run = func(ctx context.Context, pool *sim.Pool) ([]byte, error) {
		hook()
		return inner(ctx, pool)
	}
}

// StatusError is a failed request outcome: an HTTP status, the message
// for the error envelope, and whether an identical retry can be expected
// to succeed. Retryable errors (capacity, deadline, panic) carry a
// Retry-After hint on the wire; deterministic failures (invalid or
// unanalysable input) do not — retrying them burns a campaign to fail
// identically.
type StatusError struct {
	Status    int
	Msg       string
	Retryable bool
}

// Error implements error.
func (e *StatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Msg) }

// Execute runs a planned request through the shared compute path — cache
// lookup, single-flight coalescing, bounded enqueue — blocking until the
// outcome. It returns the canonical response body and its cache
// disposition ("hit", "coalesced", "miss"), or a StatusError.
//
// Failure propagation contract (shared by the leader and every coalesced
// waiter): a leader whose campaign is deadline-killed or panics yields a
// retryable 5xx for everyone riding the flight, and a failed campaign is
// never cached — the next identical request starts a fresh flight.
func (s *Server) Execute(pl *Plan) ([]byte, string, *StatusError) {
	t0 := time.Now()
	s.mu.Lock()
	if body, ok := s.cache.Get(pl.Key); ok {
		s.cacheHits++
		s.mu.Unlock()
		s.observe(t0)
		return body, "hit", nil
	}
	if jb, ok := s.flight[pl.Key]; ok {
		// An identical request is already running: ride it instead of
		// paying for a second campaign.
		s.coalesced++
		s.mu.Unlock()
		<-jb.done
		s.observe(t0)
		return jobOutcome(jb, "coalesced")
	}
	if s.draining {
		s.mu.Unlock()
		return nil, "", &StatusError{Status: http.StatusServiceUnavailable, Msg: "server draining", Retryable: true}
	}
	jb := &job{key: pl.Key, run: pl.run, done: make(chan struct{})}
	jb.ctx, jb.cancel = context.WithTimeout(context.Background(), pl.Timeout)
	select {
	case s.jobs <- jb:
		s.cacheMiss++
		s.flight[pl.Key] = jb
		s.mu.Unlock()
	default:
		s.rejected++
		s.mu.Unlock()
		jb.cancel()
		return nil, "", &StatusError{Status: http.StatusTooManyRequests, Msg: "queue full", Retryable: true}
	}
	<-jb.done
	s.observe(t0)
	return jobOutcome(jb, "miss")
}

// jobOutcome maps a finished job onto the Execute result contract.
func jobOutcome(jb *job, xcache string) ([]byte, string, *StatusError) {
	switch {
	case jb.status == runner.StatusOK:
		return jb.body, xcache, nil
	case jb.timedOut:
		// The flight's deadline, not necessarily the waiter's: retryable.
		return nil, "", &StatusError{Status: http.StatusGatewayTimeout, Msg: "deadline exceeded: " + jb.errMsg, Retryable: true}
	case jb.status == runner.StatusPanicked:
		return nil, "", &StatusError{Status: http.StatusInternalServerError, Msg: jb.errMsg, Retryable: true}
	default:
		// Semantically valid request whose campaign failed (i.i.d. gate,
		// infeasible schedule input, simulation abort): the client's input
		// was processable but unanalysable. Deterministic, so not retryable.
		return nil, "", &StatusError{Status: http.StatusUnprocessableEntity, Msg: jb.errMsg, Retryable: false}
	}
}

// dispatch is Execute's HTTP shell: run the plan, write the body or the
// error envelope, stamping retryable failures with the Retry-After hint.
func (s *Server) dispatch(w http.ResponseWriter, pl *Plan) {
	body, xcache, serr := s.Execute(pl)
	if serr != nil {
		if serr.Retryable {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		}
		writeError(w, serr.Status, serr.Msg)
		return
	}
	writeBody(w, body, xcache)
}

// RetryAfterSeconds returns the server's configured Retry-After hint in
// whole seconds (ceil with a floor of 1). The cluster router stamps the
// same hint on retryable failures it synthesises itself (all candidates
// exhausted, circuit open), so clients see one consistent contract —
// every retryable error carries Retry-After >= 1s — regardless of which
// layer failed the request.
func (s *Server) RetryAfterSeconds() int { return retryAfterSeconds(s.opts.RetryAfter) }

// retryAfterSeconds renders a Retry-After hint in whole seconds, rounding
// UP with a floor of 1: the header's unit is seconds, so any sub-second
// hint truncated (or rounded) to 0 reads as "retry immediately" and turns
// a saturated server's backpressure into a client retry storm.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// CacheLookup returns the cached canonical body for key, counting a cache
// hit. The cluster router probes this before consulting the shared fleet
// store or routing the request away.
func (s *Server) CacheLookup(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, ok := s.cache.Get(key)
	if ok {
		s.cacheHits++
	}
	return body, ok
}

// CacheFill seeds the local result cache with a canonical body computed
// elsewhere in the fleet (a shared-store hit hydrates the node it landed
// on). Safe because bodies are pure functions of the key.
func (s *Server) CacheFill(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.Put(key, body)
}

// CountRequest records one request against path in the /metrics QPS
// accounting. The cluster router serves compute paths outside the HTTP
// handlers below, so it reports them here.
func (s *Server) CountRequest(path string) {
	s.mu.Lock()
	s.requests[path]++
	s.mu.Unlock()
}

// observe records one end-to-end request latency.
func (s *Server) observe(t0 time.Time) {
	us := time.Since(t0).Microseconds()
	s.mu.Lock()
	s.latency.Observe(us)
	s.mu.Unlock()
}

// effectiveTimeout resolves a request's timeout_ms against the server
// bounds.
func (s *Server) effectiveTimeout(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("timeout_ms: negative")
	}
	if ms == 0 {
		return s.opts.DefaultTimeout, nil
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d, nil
}

// estimateIdentity is the canonical identity of an estimate request (the
// cache-key payload). Every field that can change the response bytes is
// here; nothing else is.
type estimateIdentity struct {
	Config        sim.Config `json:"config"`
	ProgramSHA    string     `json:"program_sha256"`
	Runs          int        `json:"runs"`
	Seed          uint64     `json:"seed"`
	Probabilities []float64  `json:"probabilities"`
	SkipIID       bool       `json:"skip_iid"`
	Audit         bool       `json:"audit"`
	// Converge changes the collected sample.
	Converge bool `json:"converge"`
}

// PlanRequest parses and validates a compute request body for path,
// returning the executable plan. Any error is a client error (HTTP 400):
// validation happens before any simulation work, so a malformed request
// costs a JSON decode, not a campaign. This is the seam the cluster
// router uses to learn a request's canonical key (and therefore its home
// node) from raw bytes.
func (s *Server) PlanRequest(path string, body []byte) (*Plan, error) {
	switch path {
	case "/v1/estimate":
		return s.planEstimate(body)
	case "/v1/schedule":
		return s.planSchedule(body)
	case "/v1/static":
		return s.planStatic(body)
	default:
		return nil, fmt.Errorf("unknown compute path %q", path)
	}
}

func (s *Server) planEstimate(body []byte) (*Plan, error) {
	var req EstimateRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	prog, sha, err := s.buildProgram(req.Program)
	if err != nil {
		return nil, err
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return nil, err
	}
	probs, err := normalizeProbabilities(req.Probabilities)
	if err != nil {
		return nil, err
	}
	runs := req.Runs
	if runs == 0 {
		runs = 300
	}
	if runs < 40 {
		return nil, fmt.Errorf("runs: at least 40 required for a block-maxima fit")
	}
	if runs > s.opts.MaxRuns {
		return nil, fmt.Errorf("runs: %d exceeds the server cap %d", runs, s.opts.MaxRuns)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	timeout, err := s.effectiveTimeout(req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	key := cacheKey("estimate", estimateIdentity{
		Config: cfg, ProgramSHA: sha, Runs: runs, Seed: seed,
		Probabilities: probs, SkipIID: req.SkipIID, Audit: req.Audit,
		Converge: req.Converge,
	})
	audit := req.Audit
	skipIID := req.SkipIID
	converge := req.Converge
	name := prog.Name
	return &Plan{Key: key, Timeout: timeout, run: func(ctx context.Context, pool *sim.Pool) ([]byte, error) {
		var aud *sim.Auditor
		if audit {
			aud = sim.NewAuditor()
			pool.SetAuditor(aud)
			defer pool.SetAuditor(nil)
		}
		// A converged stream tracks the deepest requested tail (the slowest
		// quantile to stabilise).
		times, res, err := pool.Estimate(ctx, cfg, prog, sim.EstimateSpec{
			Runs: runs, Seed: seed, Converge: converge, Prob: probs[0], SkipIID: skipIID,
		})
		if err != nil {
			return nil, err
		}
		resp := EstimateResponse{
			Program: name, ProgramSHA: sha, Runs: len(times), Seed: seed,
			MaxObserved: res.MaxSeen, PWCET: make(map[string]float64, len(probs)),
		}
		if !skipIID {
			resp.IID = &IIDSummary{WWAbsZ: res.IID.WW.AbsZ, KSPValue: res.IID.KS.PValue, Passed: res.IID.Passed}
		}
		for _, p := range probs {
			v, err := res.PWCETE(p)
			if err != nil {
				return nil, err
			}
			resp.PWCET[probKey(p)] = v
		}
		if aud != nil {
			raw, err := json.Marshal(aud.Report())
			if err != nil {
				return nil, err
			}
			resp.Audit = raw
		}
		return json.Marshal(resp)
	}}, nil
}

// scheduleIdentity is the canonical identity of a schedule request.
type scheduleIdentity struct {
	Config    sim.Config `json:"config"`
	MIFCycles int64      `json:"mif_cycles"`
	Tasks     []TaskSpec `json:"tasks"`
}

func (s *Server) planSchedule(body []byte) (*Plan, error) {
	var req ScheduleRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return nil, err
	}
	if req.MIFCycles <= 0 {
		return nil, fmt.Errorf("mif_cycles: must be positive")
	}
	timeout, err := s.effectiveTimeout(req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	key := cacheKey("schedule", scheduleIdentity{Config: cfg, MIFCycles: req.MIFCycles, Tasks: req.Tasks})
	tasks := make([]*sched.Task, len(req.Tasks))
	for i, t := range req.Tasks {
		tasks[i] = &sched.Task{Name: t.Name, PWCET: t.PWCET}
	}
	mif := req.MIFCycles
	return &Plan{Key: key, Timeout: timeout, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		sch, err := sched.PackGreedy(cfg, tasks, mif)
		if err != nil {
			return nil, err
		}
		rep, err := sch.CheckFeasibility()
		if err != nil {
			return nil, err
		}
		resp := ScheduleResponse{Feasible: rep.Feasible, Frames: make([][]SlotJSON, len(sch.Frames))}
		for fi, f := range sch.Frames {
			frame := make([]SlotJSON, 0, len(f.Slots))
			for _, slot := range f.Slots {
				if slot.Task == nil {
					continue
				}
				frame = append(frame, SlotJSON{Core: slot.Core, Task: slot.Task.Name})
			}
			resp.Frames[fi] = frame
		}
		for _, c := range rep.PerSlot {
			resp.Slots = append(resp.Slots, SlotCheckJSON{
				Frame: c.Frame, Core: c.Core, Task: c.Task,
				PWCET: c.PWCET, Budget: c.Budget, Fits: c.Fits, Slack: c.Slack,
			})
		}
		return json.Marshal(resp)
	}}, nil
}

// staticIdentity is the canonical identity of a static request.
type staticIdentity struct {
	ProgramSHA        string    `json:"program_sha256"`
	Model             ModelSpec `json:"model"`
	Trace             TraceSpec `json:"trace"`
	EvictionsPerCycle float64   `json:"evictions_per_cycle"`
	MeanGapCycles     float64   `json:"mean_gap_cycles"`
	Conservative      bool      `json:"conservative"`
	Probabilities     []float64 `json:"probabilities"`
}

func (s *Server) planStatic(body []byte) (*Plan, error) {
	var req StaticRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	prog, sha, err := s.buildProgram(req.Program)
	if err != nil {
		return nil, err
	}
	model := efl.StaticCacheModel{
		Sets: req.Model.Sets, Ways: req.Model.Ways,
		HitLat: req.Model.HitLatency, MissLat: req.Model.MissLatency,
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	probs, err := normalizeProbabilities(req.Probabilities)
	if err != nil {
		return nil, err
	}
	// Resolve trace defaults before keying so spelled-out and defaulted
	// requests share a cache entry.
	trace := req.Trace
	if trace.LineBytes == 0 {
		trace.LineBytes = 16
	}
	if trace.MaxSteps == 0 {
		trace.MaxSteps = 10_000_000
	}
	timeout, err := s.effectiveTimeout(req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	key := cacheKey("static", staticIdentity{
		ProgramSHA: sha, Model: req.Model, Trace: trace,
		EvictionsPerCycle: req.EvictionsPerCycle, MeanGapCycles: req.MeanGapCycles,
		Conservative: req.Conservative, Probabilities: probs,
	})
	evict, gap, cons := req.EvictionsPerCycle, req.MeanGapCycles, req.Conservative
	name := prog.Name
	return &Plan{Key: key, Timeout: timeout, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		res, err := efl.StaticPWCET(prog, model, efl.StaticTraceOptions{
			LineBytes: trace.LineBytes, Instruction: trace.Instruction,
			Data: trace.Data, MaxSteps: trace.MaxSteps,
		}, evict, gap, cons)
		if err != nil {
			return nil, err
		}
		resp := StaticResponse{
			Program: name, ProgramSHA: sha, Accesses: res.Accesses,
			ColdMisses: res.ColdMisses, Mean: res.Mean, Var: res.Var,
			PWCET: make(map[string]float64, len(probs)),
		}
		for _, p := range probs {
			v, err := res.PWCETE(p)
			if err != nil {
				return nil, err
			}
			resp.PWCET[probKey(p)] = v
		}
		return json.Marshal(resp)
	}}, nil
}

// handleCompute is the HTTP entry of every compute endpoint: read the
// bounded body, plan, dispatch.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	pl, err := s.PlanRequest(r.URL.Path, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.dispatch(w, pl)
}

// MetricsSnapshot is the /metrics JSON body.
type MetricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	QPS           float64           `json:"qps"`
	Requests      map[string]uint64 `json:"requests"`
	Rejected      uint64            `json:"rejected"`
	QueueDepth    int               `json:"queue_depth"`
	QueueCapacity int               `json:"queue_capacity"`
	Cache         CacheStats        `json:"cache"`
	Traces        TraceStats        `json:"traces"`
	Workers       []WorkerStat      `json:"workers"`
	LatencyUS     LatencyStats      `json:"latency_us"`
}

// CacheStats summarises the result cache.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// LatencyStats summarises the request latency histogram (microseconds;
// percentiles are power-of-two bucket upper bounds).
type LatencyStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot returns the current metrics.
func (s *Server) Snapshot() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.start).Seconds()
	snap := MetricsSnapshot{
		UptimeSeconds: up,
		Requests:      make(map[string]uint64, len(s.requests)),
		Rejected:      s.rejected,
		QueueDepth:    len(s.jobs),
		QueueCapacity: cap(s.jobs),
		Cache: CacheStats{
			Hits: s.cacheHits, Misses: s.cacheMiss, Coalesced: s.coalesced,
			Entries: s.cache.Len(), Bytes: s.cache.Bytes(),
		},
		Traces: TraceStats{
			Uploads: s.traceUploads, Hits: s.traceHits, Misses: s.traceMiss,
			StoreErrors: s.traceStoreErrors,
			Entries:     s.traces.Len(), Bytes: s.traces.Bytes(),
		},
		Workers: append([]WorkerStat(nil), s.workers...),
		LatencyUS: LatencyStats{
			Count: s.latency.Count(), Mean: s.latency.Mean(), Max: s.latency.Max(),
			P50: s.latency.Quantile(0.50), P90: s.latency.Quantile(0.90), P99: s.latency.Quantile(0.99),
		},
	}
	var total uint64
	for path, n := range s.requests {
		snap.Requests[path] = n
		total += n
	}
	if up > 0 {
		snap.QPS = float64(total) / up
	}
	if lookups := s.cacheHits + s.coalesced + s.cacheMiss; lookups > 0 {
		snap.Cache.HitRate = float64(s.cacheHits+s.coalesced) / float64(lookups)
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// decodeJSON decodes a strict JSON request body (already bounded by the
// HTTP layer's MaxBytesReader).
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

// writeBody writes a canonical success body with its cache disposition.
func writeBody(w http.ResponseWriter, body []byte, xcache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	w.Write(body)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}
