package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"efl/internal/service"
)

// FleetOptions configures StartFleet.
type FleetOptions struct {
	// Nodes is the fleet size (>= 1).
	Nodes int
	// StoreDir roots the shared result store; empty runs without one.
	StoreDir string
	// Service configures every node's estimation server.
	Service service.Options
	// HopGrace, BreakerThreshold and BreakerProbeEvery pass through to
	// every node (<= 0 selects the resil defaults). Tests tighten
	// HopGrace so hung-peer recovery happens in milliseconds.
	HopGrace          time.Duration
	BreakerThreshold  int
	BreakerProbeEvery int
}

// Fleet is an in-process cluster of N nodes listening on real loopback
// TCP ports — the harness behind the fleet tests, the eflload fleet
// modes and the CI smoke. Real sockets rather than httptest round-trips:
// node death must look like node death (connection refused), not like a
// Go method returning an error.
//
// Beyond clean death (Drop), the fleet arms the byzantine fault classes
// the resilience matrix demands: Slow (accepts TCP, stalls headers),
// Flaky (a deterministic fraction of responses reset mid-body),
// Partition (two nodes lose mutual connectivity while the rest of the
// fleet sees both) and CorruptStoreEntry (byte-flip on the shared
// store's disk). Every injection is deterministic — count-driven or
// explicit — so a chaos schedule replays exactly.
type Fleet struct {
	Nodes []*Node
	IDs   []string
	URLs  []string
	// StoreDir is the shared result store's root ("" without a store).
	StoreDir string
	servers  []*http.Server
	svcs     []*service.Server
	dropped  []bool
	gates    []*chaosGate
	part     *partitionTable
}

// chaosGate is one node's armed byzantine behaviour, checked by the
// handler wrapper on every compute request. Atomics: the gate is flipped
// by the harness while request goroutines read it.
type chaosGate struct {
	slow       atomic.Bool
	flakyEvery atomic.Int64 // 0 = off; every Nth compute response resets mid-body
	flakyCount atomic.Int64
}

// partitionTable is the fleet's shared connectivity view: blocked
// (sender, target-address) pairs enforced at dial time in every node's
// forwarding client. Sender-side enforcement of both directions is
// equivalent to a wire cut for inter-node traffic, which all flows
// through these clients.
type partitionTable struct {
	mu      sync.Mutex
	blocked map[string]bool // "senderID|targetHostPort"
}

func (p *partitionTable) key(sender, addr string) string { return sender + "|" + addr }

func (p *partitionTable) isBlocked(sender, addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[p.key(sender, addr)]
}

func (p *partitionTable) set(sender, addr string, blocked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if blocked {
		p.blocked[p.key(sender, addr)] = true
	} else {
		delete(p.blocked, p.key(sender, addr))
	}
}

func (p *partitionTable) clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked = map[string]bool{}
}

// StartFleet brings up a fleet of opts.Nodes nodes. Listeners are bound
// first so the full peer table (with real ports) exists before any node
// is constructed — every node routes from the same ring from its first
// request.
func StartFleet(opts FleetOptions) (*Fleet, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("cluster: fleet needs at least one node")
	}
	var store Store
	if opts.StoreDir != "" {
		ds, err := NewDirStore(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		store = ds
		// Share the trace registry through the same store: a trace uploaded
		// to any node resolves on every node, so trace_hash requests route
		// (and steal) exactly like benchmark/source ones.
		opts.Service.TraceStore = ds
	}
	f := &Fleet{
		Nodes:    make([]*Node, opts.Nodes),
		IDs:      make([]string, opts.Nodes),
		URLs:     make([]string, opts.Nodes),
		StoreDir: opts.StoreDir,
		servers:  make([]*http.Server, opts.Nodes),
		svcs:     make([]*service.Server, opts.Nodes),
		dropped:  make([]bool, opts.Nodes),
		gates:    make([]*chaosGate, opts.Nodes),
		part:     &partitionTable{blocked: map[string]bool{}},
	}
	listeners := make([]net.Listener, opts.Nodes)
	peers := make(map[string]string, opts.Nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		f.IDs[i] = "node-" + strconv.Itoa(i)
		f.URLs[i] = "http://" + ln.Addr().String()
		peers[f.IDs[i]] = f.URLs[i]
		f.gates[i] = &chaosGate{}
	}
	for i := range listeners {
		f.svcs[i] = service.New(opts.Service)
		node, err := NewNode(Options{
			ID: f.IDs[i], Peers: peers, Service: f.svcs[i], Store: store,
			Client:           f.partitionedClient(f.IDs[i]),
			HopGrace:         opts.HopGrace,
			BreakerThreshold: opts.BreakerThreshold, BreakerProbeEvery: opts.BreakerProbeEvery,
		})
		if err != nil {
			f.Close()
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		f.Nodes[i] = node
		f.servers[i] = &http.Server{Handler: f.chaosHandler(i, node.Handler())}
		go f.servers[i].Serve(listeners[i])
	}
	return f, nil
}

// partitionedClient builds a node's forwarding client: the standard
// short dial timeout and header backstop, plus a dial hook that consults
// the fleet's partition table — a blocked pair fails exactly like an
// unreachable host, immediately and at the transport layer.
func (f *Fleet) partitionedClient(senderID string) *http.Client {
	dialer := &net.Dialer{Timeout: 2 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if f.part.isBlocked(senderID, addr) {
				return nil, fmt.Errorf("cluster: partition: %s cannot reach %s", senderID, addr)
			}
			return dialer.DialContext(ctx, network, addr)
		},
		ResponseHeaderTimeout: 6 * time.Minute,
	}}
}

// chaosHandler wraps a node's handler with its byzantine gate. Only the
// compute paths misbehave — /cluster/metrics and /healthz stay
// responsive, so a degraded fleet remains diagnosable (exactly the
// production failure shape: the data plane hangs, the control plane
// answers).
func (f *Fleet) chaosHandler(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			g := f.gates[i]
			if g.slow.Load() {
				// PeerSlow: the connection was accepted and the request
				// read, but headers never come — hold until the caller
				// abandons the hop (its per-hop budget expiring is the
				// defense under test).
				<-r.Context().Done()
				return
			}
			if every := g.flakyEvery.Load(); every > 0 {
				if g.flakyCount.Add(1)%every == 0 {
					// FlakyTransport: headers and a body prefix go out,
					// then the connection resets mid-body.
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusOK)
					w.Write([]byte(`{"truncated`))
					if fl, ok := w.(http.Flusher); ok {
						fl.Flush()
					}
					panic(http.ErrAbortHandler)
				}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// Slow arms (or heals) the peer-slow byzantine fault on node i: compute
// requests are accepted and read but never answered.
func (f *Fleet) Slow(i int, enabled bool) {
	f.gates[i].slow.Store(enabled)
}

// Flaky arms the flaky-transport fault on node i: every `every`-th
// compute response is reset mid-body (0 disarms). Count-driven, so a
// given request sequence hits a deterministic set of resets.
func (f *Fleet) Flaky(i int, every int64) {
	f.gates[i].flakyEvery.Store(every)
	f.gates[i].flakyCount.Store(0)
}

// Partition cuts connectivity between nodes i and j in both directions;
// every other pair keeps flowing (A sees B but not C). Heal restores.
func (f *Fleet) Partition(i, j int) {
	ai := strings.TrimPrefix(f.URLs[i], "http://")
	aj := strings.TrimPrefix(f.URLs[j], "http://")
	f.part.set(f.IDs[i], aj, true)
	f.part.set(f.IDs[j], ai, true)
}

// Heal clears every armed partition.
func (f *Fleet) Heal() {
	f.part.clear()
}

// Dropped reports whether node i has been killed.
func (f *Fleet) Dropped(i int) bool { return f.dropped[i] }

// Drop kills node i abruptly: its listener and every open connection
// close, so peers see connection-refused — the fleet-level node-drop
// fault. The node's in-flight campaigns finish into its (now
// unreachable) cache; nothing is drained gracefully, which is the point.
func (f *Fleet) Drop(i int) {
	if f.dropped[i] {
		return
	}
	f.dropped[i] = true
	f.servers[i].Close()
}

// Close shuts the whole fleet down, draining every surviving service.
func (f *Fleet) Close() {
	for i, srv := range f.servers {
		if srv != nil && !f.dropped[i] {
			f.dropped[i] = true
			srv.Close()
		}
	}
	for _, svc := range f.svcs {
		if svc != nil {
			svc.Close()
		}
	}
}

// CorruptStoreEntry flips one byte inside the stored body of key's entry
// in the shared store rooted at dir — the store-corrupt byzantine fault
// (bit rot, hostile tenant, torn write on a non-atomic filesystem). The
// flip lands inside the base64 body payload, so the envelope still
// decodes but the body bytes change: exactly the corruption only
// content-hash verification can catch.
func CorruptStoreEntry(dir, key string) error {
	p := filepath.Join(dir, key[:2], key+".json")
	data, err := os.ReadFile(p)
	if err != nil {
		return fmt.Errorf("cluster: corrupt store entry: %w", err)
	}
	marker := []byte(`"body"`)
	i := bytes.Index(data, marker)
	if i < 0 {
		return fmt.Errorf("cluster: store entry %s has no body field", key)
	}
	// Step to the opening quote of the value, then flip a character a
	// safe distance inside the base64 run.
	j := bytes.IndexByte(data[i+len(marker):], '"')
	if j < 0 {
		return fmt.Errorf("cluster: store entry %s: malformed body field", key)
	}
	pos := i + len(marker) + j + 1 + 16
	if pos >= len(data) || data[pos] == '"' {
		return fmt.Errorf("cluster: store entry %s: body too short to corrupt", key)
	}
	if data[pos] == 'A' {
		data[pos] = 'B'
	} else {
		data[pos] = 'A'
	}
	// Deliberately a plain in-place write, not the atomic fsynced path:
	// the fault models the filesystem misbehaving underneath the store.
	return os.WriteFile(p, data, 0o644)
}
