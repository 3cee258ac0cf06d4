package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"efl/internal/fault"
	"efl/internal/resil"
	"efl/internal/service"
)

// Routing headers. X-Cluster-Hop marks a request a peer already routed
// (the receiver is terminal: it serves locally and never re-forwards, so
// no request crosses the fleet more than once). X-Cluster-Node names the
// node whose service produced the body; X-Cluster-Route records the
// routing disposition the client-facing node took.
const (
	HopHeader   = "X-Cluster-Hop"
	NodeHeader  = "X-Cluster-Node"
	RouteHeader = "X-Cluster-Route"
)

// Route dispositions (RouteHeader values).
const (
	// RouteLocal: this node served from its own cache/flight/compute —
	// either as the key's home node or as a terminal hop target.
	RouteLocal = "local"
	// RouteStore: served from the shared result store (a campaign some
	// other node finished earlier).
	RouteStore = "store"
	// RouteForward: relayed from the key's home node.
	RouteForward = "forward"
	// RouteSteal: the home node was dead or saturated; a later candidate
	// in the key's deterministic failover sequence answered (possibly this
	// node itself).
	RouteSteal = "steal"
)

// Options configures a Node.
type Options struct {
	// ID is this node's identity in Peers and on the ring.
	ID string
	// Peers maps every fleet member (including this node) to its base URL
	// ("http://host:port"). The key set defines the hash ring.
	Peers map[string]string
	// Service is the node's local estimation server.
	Service *service.Server
	// Store is the shared result store; nil runs without one (forwarding
	// and stealing still work, cross-node cache hits need the peer's LRU).
	Store Store
	// Client is used for forwarding; nil selects a client with a short
	// dial timeout (dead peers fail fast) and a response-header backstop
	// but no overall timeout (forwarded campaigns legitimately run for
	// minutes — the precise per-hop budget is a per-request context
	// deadline derived from the plan's own deadline, see forward).
	Client *http.Client
	// HopGrace pads each forwarded request's budget past the plan
	// deadline (<= 0 selects resil.DefaultHopGrace). The per-hop budget
	// is plan timeout + grace: the peer needs the full deadline for the
	// campaign itself plus margin for queueing and transport, and a peer
	// that accepts the connection but never answers is abandoned — and
	// the work stolen — when the budget expires.
	HopGrace time.Duration
	// BreakerThreshold and BreakerProbeEvery tune the per-peer circuit
	// breakers (<= 0 selects the resil defaults).
	BreakerThreshold  int
	BreakerProbeEvery int
}

// Node is one router+server member of the estimation fleet. It wraps a
// service.Server: compute paths route by cache key, everything else
// (metrics, healthz) passes through.
type Node struct {
	id       string
	peers    map[string]string
	ring     *Ring
	store    Store
	svc      *service.Server
	client   *http.Client
	hopGrace time.Duration

	// breakers holds one circuit breaker per remote peer, so a dead or
	// flapping node stops costing this node a dial timeout (or worse, a
	// full hop budget) on every routed request. Immutable map after
	// construction; the breakers themselves are concurrency-safe.
	breakers map[string]*resil.Breaker

	// chaosPanic arms one injected job-panic, consumed by the next
	// campaign that actually executes here (cache and store hits never
	// reach it).
	chaosPanic atomic.Bool

	mu               sync.Mutex
	routes           map[string]uint64
	crossNodeHits    uint64
	storeErrors      uint64
	breakerSkips     uint64
	backoffSleeps    uint64
	hopTimeouts      uint64
	oversizedReplies uint64
}

// NewNode builds a fleet node. Peers must contain ID.
func NewNode(opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	if _, ok := opts.Peers[opts.ID]; !ok {
		return nil, fmt.Errorf("cluster: node %q absent from its own peer table", opts.ID)
	}
	if opts.Service == nil {
		return nil, fmt.Errorf("cluster: node %q needs a service", opts.ID)
	}
	members := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		members = append(members, id)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			// Backstop only: the real per-hop budget is the per-request
			// context deadline forward() derives from the plan timeout.
			// This catches requests that somehow carry no deadline, so a
			// hung-but-accepting peer can never stall a hop forever.
			ResponseHeaderTimeout: 6 * time.Minute,
		}}
	}
	hopGrace := opts.HopGrace
	if hopGrace <= 0 {
		hopGrace = resil.DefaultHopGrace
	}
	breakers := make(map[string]*resil.Breaker, len(opts.Peers)-1)
	for id := range opts.Peers {
		if id != opts.ID {
			breakers[id] = resil.NewBreaker(opts.BreakerThreshold, opts.BreakerProbeEvery)
		}
	}
	return &Node{
		id:       opts.ID,
		peers:    opts.Peers,
		ring:     NewRing(members, DefaultVirtualNodes),
		store:    opts.Store,
		svc:      opts.Service,
		client:   client,
		hopGrace: hopGrace,
		breakers: breakers,
		routes:   map[string]uint64{},
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.id }

// Service returns the wrapped local estimation server.
func (n *Node) Service() *service.Server { return n.svc }

// Owner returns key's home node on the fleet ring.
func (n *Node) Owner(key string) string { return n.ring.Owner(key) }

// Sequence returns key's deterministic failover order on the fleet ring.
func (n *Node) Sequence(key string) []string { return n.ring.Sequence(key) }

// InjectFault arms a chaos fault on this node. Only the software classes
// make sense here: fault.JobPanic panics the next campaign that executes
// locally (exercising panic isolation through the routing layer);
// fault.NodeDrop is a fleet-level fault — killing a process is the
// harness's job (Fleet.Drop), not the victim's.
func (n *Node) InjectFault(c fault.Class) error {
	switch c {
	case fault.JobPanic:
		n.chaosPanic.Store(true)
		return nil
	default:
		return fmt.Errorf("cluster: fault %q is not injectable on a node (node-drop is a fleet-level fault)", c)
	}
}

// Handler returns the node's HTTP routing: compute paths go through the
// cluster router, everything else through the wrapped service.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/estimate", n.handleCompute)
	mux.HandleFunc("/v1/schedule", n.handleCompute)
	mux.HandleFunc("/v1/static", n.handleCompute)
	mux.HandleFunc("/cluster/metrics", n.handleMetrics)
	mux.Handle("/", n.svc.Handler())
	return mux
}

// handleCompute is the routed entry of every compute path.
func (n *Node) handleCompute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	n.svc.CountRequest(r.URL.Path)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	pl, err := n.svc.PlanRequest(r.URL.Path, body)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.Header.Get(HopHeader) != "" {
		// A peer already routed this request here; serve it, never
		// re-forward.
		n.serveLocal(w, pl, RouteLocal)
		return
	}
	n.route(w, r.URL.Path, body, pl)
}

// route answers a client-originated compute request: local cache, then
// the shared store, then the key's deterministic candidate sequence —
// home node first, stealing past dead or saturated candidates.
func (n *Node) route(w http.ResponseWriter, path string, body []byte, pl *service.Plan) {
	if cached, ok := n.svc.CacheLookup(pl.Key); ok {
		n.reply(w, n.id, RouteLocal, "hit", cached)
		return
	}
	if b, ok := n.storeGet(pl.Key); ok {
		n.svc.CacheFill(pl.Key, b)
		n.countCross()
		n.reply(w, n.id, RouteStore, "store", b)
		return
	}
	// Deterministic pacing between failed steal attempts: the schedule is
	// a pure function of the request key, so a chaos test replays the
	// exact backoff sequence a production route took.
	backoff := resil.Backoff{Seed: resil.SeedFromKey(pl.Key)}
	failedHops := 0
	var lastErr *service.StatusError
	for i, id := range n.ring.Sequence(pl.Key) {
		route := RouteForward
		if i > 0 {
			route = RouteSteal
		}
		if id == n.id {
			if i == 0 {
				route = RouteLocal
			}
			bodyOut, xcache, serr := n.execLocal(pl)
			if serr != nil && capacityError(serr) {
				// Saturated or draining locally: let a ring successor
				// steal the work instead of bouncing the client.
				lastErr = serr
				continue
			}
			if serr != nil {
				n.replyError(w, n.id, route, serr)
				return
			}
			n.reply(w, n.id, route, xcache, bodyOut)
			return
		}
		br := n.breakers[id]
		if br != nil && !br.Allow() {
			// Breaker open: skip the peer without paying its failure
			// latency — the whole point of ejecting dead/flapping nodes.
			n.mu.Lock()
			n.breakerSkips++
			n.mu.Unlock()
			lastErr = &service.StatusError{Status: http.StatusServiceUnavailable, Msg: "peer " + id + " circuit open", Retryable: true}
			continue
		}
		if failedHops > 0 {
			// A previous candidate failed on the wire: pace the next
			// attempt so a degraded fleet is not hammered in a tight loop.
			n.mu.Lock()
			n.backoffSleeps++
			n.mu.Unlock()
			time.Sleep(backoff.Delay(failedHops - 1))
		}
		resp, data, ok := n.forward(id, path, body, pl.Timeout)
		if !ok {
			// Dead, unreachable, hung past its hop budget, saturated or
			// draining: steal to the next candidate in the fleet-wide
			// deterministic order.
			if br != nil {
				br.Failure()
			}
			failedHops++
			lastErr = &service.StatusError{Status: http.StatusServiceUnavailable, Msg: "peer " + id + " unavailable", Retryable: true}
			continue
		}
		if br != nil {
			br.Success()
		}
		n.relay(w, resp, data, route)
		return
	}
	if lastErr == nil {
		lastErr = &service.StatusError{Status: http.StatusServiceUnavailable, Msg: "no fleet member available", Retryable: true}
	}
	n.replyError(w, n.id, RouteSteal, lastErr)
}

// execLocal runs a plan on this node's service, arming any pending chaos
// panic and publishing fresh results to the shared store.
func (n *Node) execLocal(pl *service.Plan) ([]byte, string, *service.StatusError) {
	pl.Chaos(func() {
		if n.chaosPanic.CompareAndSwap(true, false) {
			panic("cluster: injected job-panic")
		}
	})
	body, xcache, serr := n.svc.Execute(pl)
	if serr == nil && xcache == "miss" {
		n.storePut(pl.Key, body)
	}
	return body, xcache, serr
}

// serveLocal is execLocal plus the response writing (terminal hop path).
func (n *Node) serveLocal(w http.ResponseWriter, pl *service.Plan, route string) {
	body, xcache, serr := n.execLocal(pl)
	if serr != nil {
		n.replyError(w, n.id, route, serr)
		return
	}
	n.reply(w, n.id, route, xcache, body)
}

// maxPeerResponseBytes caps how much of a peer's response body forward
// buffers: the service's own request cap plus slack for the response
// envelope. Every legitimate response body fits (result bodies are far
// smaller than request bodies); only a byzantine or corrupted peer can
// exceed it.
const maxPeerResponseBytes = service.MaxBodyBytes + 64<<10

// forward sends the raw request body to peer id under the request's
// per-hop budget (plan timeout + grace — the peer needs the full plan
// deadline for the campaign itself). The context deadline covers the
// whole exchange, headers AND body, so both a hung-but-accepting peer
// (accepts TCP, never sends headers) and a peer stalling mid-body are
// abandoned when the budget expires instead of stalling the client
// forever. ok is false when the candidate cannot take the work now —
// transport failure (dead node), budget expiry, or capacity refusal
// (429/503) — and the caller should steal onward; any other response,
// success or deterministic failure, is final.
func (n *Node) forward(id, path string, body []byte, planTimeout time.Duration) (*http.Response, []byte, bool) {
	budget, err := resil.HopBudget(planTimeout, n.hopGrace)
	if err != nil {
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.peers[id]+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, n.id)
	resp, err := n.client.Do(req)
	if err != nil {
		n.countHopTimeout(ctx)
		return nil, nil, false
	}
	// Bounded read, mirroring the request path's MaxBytesReader: a
	// byzantine peer streaming an endless 200 body must not exhaust this
	// node's memory. The slack covers response-envelope overhead on a
	// maximum-size payload; anything past it marks the peer broken and the
	// work is stolen onward like any other peer failure.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes+1))
	resp.Body.Close()
	if err != nil {
		n.countHopTimeout(ctx)
		return nil, nil, false
	}
	if len(data) > maxPeerResponseBytes {
		n.mu.Lock()
		n.oversizedReplies++
		n.mu.Unlock()
		return nil, nil, false
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return nil, nil, false
	}
	return resp, data, true
}

// countHopTimeout attributes a forwarding failure to the hop budget when
// the hop's context expired (as opposed to a dial refusal or reset).
func (n *Node) countHopTimeout(ctx context.Context) {
	if ctx.Err() == nil {
		return
	}
	n.mu.Lock()
	n.hopTimeouts++
	n.mu.Unlock()
}

// relay writes a peer's response through to the client, stamping the
// route this node took and counting a cross-node hit when the peer
// answered from its cache or an in-flight campaign (fleet-wide
// single-flight observed from here).
func (n *Node) relay(w http.ResponseWriter, resp *http.Response, data []byte, route string) {
	xcache := resp.Header.Get("X-Cache")
	if resp.StatusCode == http.StatusOK && (xcache == "hit" || xcache == "coalesced" || xcache == "store") {
		n.countCross()
	}
	n.countRoute(route)
	w.Header().Set("Content-Type", "application/json")
	if xcache != "" {
		w.Header().Set("X-Cache", xcache)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(NodeHeader, resp.Header.Get(NodeHeader))
	w.Header().Set(RouteHeader, route)
	w.WriteHeader(resp.StatusCode)
	w.Write(data)
}

// reply writes a success body with full routing attribution.
func (n *Node) reply(w http.ResponseWriter, node, route, xcache string, body []byte) {
	n.countRoute(route)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	w.Header().Set(NodeHeader, node)
	w.Header().Set(RouteHeader, route)
	w.Write(body)
}

// replyError writes a StatusError with routing attribution, preserving
// the service's Retry-After contract for retryable failures.
func (n *Node) replyError(w http.ResponseWriter, node, route string, serr *service.StatusError) {
	n.countRoute(route)
	if serr.Retryable {
		w.Header().Set("Retry-After", strconv.Itoa(n.svc.RetryAfterSeconds()))
	}
	w.Header().Set(NodeHeader, node)
	w.Header().Set(RouteHeader, route)
	errorJSON(w, serr.Status, serr.Msg)
}

// storeGet probes the shared store, counting (not failing on) store
// errors: a flaky shared mount degrades the fleet to forwarding, it does
// not take requests down.
func (n *Node) storeGet(key string) ([]byte, bool) {
	if n.store == nil {
		return nil, false
	}
	b, ok, err := n.store.Get(key)
	if err != nil {
		n.mu.Lock()
		n.storeErrors++
		n.mu.Unlock()
		return nil, false
	}
	return b, ok
}

// storePut publishes a fresh result to the shared store, best-effort.
func (n *Node) storePut(key string, body []byte) {
	if n.store == nil {
		return
	}
	if err := n.store.Put(key, body); err != nil {
		n.mu.Lock()
		n.storeErrors++
		n.mu.Unlock()
	}
}

func (n *Node) countRoute(route string) {
	n.mu.Lock()
	n.routes[route]++
	n.mu.Unlock()
}

func (n *Node) countCross() {
	n.mu.Lock()
	n.crossNodeHits++
	n.mu.Unlock()
}

// Metrics is the /cluster/metrics JSON body: routing dispositions, the
// cross-node hit count (requests this node answered with fleet work it
// did not compute), per-peer breaker state, resilience counters, store
// health, and the wrapped service's snapshot — enough to diagnose a
// degraded fleet without log spelunking: an open breaker names the dead
// peer, hop_timeouts names hung ones, store_quarantined names a rotting
// shared mount.
type Metrics struct {
	Node          string            `json:"node"`
	Routes        map[string]uint64 `json:"routes"`
	CrossNodeHits uint64            `json:"cross_node_hits"`
	// Breakers maps each remote peer to its circuit-breaker state.
	Breakers map[string]resil.Stats `json:"breakers"`
	// BreakerSkips counts candidates skipped without any network cost
	// because their breaker was open.
	BreakerSkips uint64 `json:"breaker_skips"`
	// BackoffSleeps counts deterministic pacing pauses between failed
	// steal attempts.
	BackoffSleeps uint64 `json:"backoff_sleeps"`
	// HopTimeouts counts forwards abandoned because the per-hop budget
	// (plan deadline + grace) expired — the hung-peer signature.
	HopTimeouts uint64 `json:"hop_timeouts"`
	// OversizedReplies counts peer responses abandoned because their body
	// ran past the forwarding cap — the byzantine-peer signature.
	OversizedReplies uint64 `json:"oversized_replies"`
	StoreErrors      uint64 `json:"store_errors"`
	// StoreQuarantined counts corrupt shared-store entries this node's
	// store handle verified, refused to serve, and moved to corrupt/.
	StoreQuarantined uint64                  `json:"store_quarantined"`
	Service          service.MetricsSnapshot `json:"service"`
}

// Snapshot returns the node's current metrics.
func (n *Node) Snapshot() Metrics {
	n.mu.Lock()
	routes := make(map[string]uint64, len(n.routes))
	for k, v := range n.routes {
		routes[k] = v
	}
	m := Metrics{
		Node: n.id, Routes: routes, CrossNodeHits: n.crossNodeHits,
		BreakerSkips: n.breakerSkips, BackoffSleeps: n.backoffSleeps,
		HopTimeouts: n.hopTimeouts, OversizedReplies: n.oversizedReplies,
		StoreErrors: n.storeErrors,
	}
	n.mu.Unlock()
	m.Breakers = make(map[string]resil.Stats, len(n.breakers))
	for id, br := range n.breakers {
		m.Breakers[id] = br.Snapshot()
	}
	if q, ok := n.store.(interface{ Quarantined() uint64 }); ok {
		m.StoreQuarantined = q.Quarantined()
	}
	m.Service = n.svc.Snapshot()
	return m
}

func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Snapshot())
}

// capacityError reports whether serr is a capacity refusal (queue full,
// draining) — the failures work-stealing exists for. Deadline kills and
// panics are not stolen: the campaign already burned its budget once and
// the client owns the retry decision.
func capacityError(serr *service.StatusError) bool {
	return serr.Status == http.StatusTooManyRequests || serr.Status == http.StatusServiceUnavailable
}

// errorJSON writes the service's error envelope shape.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
