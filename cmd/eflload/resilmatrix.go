// The resilmatrix experiment (-exp resilmatrix): one scenario per
// byzantine fault class — peer-slow, partition, store-corrupt,
// flaky-transport, node-drop — each injected into a live fleet while a
// client keeps asking for work homed on the faulted node. Every scenario
// grades four columns:
//
//	detected        the fleet's own metrics name the fault (hop-timeout,
//	                breaker failure, quarantine) — no log spelunking
//	recovered       the client still got HTTP 200
//	byte_identical  the degraded answer equals the clean fleet's bytes
//	fail_fast       wall-clock stayed under the scenario's budget bound
//	                (per-hop budget + slack) — bounded, no hangs
//
// A final probe drains every surviving service and asserts the fleet
// fails FAST and RETRYABLY (503 with a well-formed Retry-After) when
// nothing can serve, rather than hanging the client. The artifact (kind
// "resilmatrix") is the committed RESIL_MATRIX.json and the CI gate:
// exit is nonzero unless every column of every row holds.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"efl"
	"efl/internal/artifact"
	"efl/internal/cluster"
	"efl/internal/fault"
	"efl/internal/resil"
)

// Matrix-wide request shape: every campaign carries an explicit deadline
// so per-hop budgets (deadline + grace) are small and the "no hangs"
// bound is measured in seconds, exactly as a deadline-carrying production
// request would behave.
const (
	matrixTimeoutMS = 3000
	matrixHopGrace  = 500 * time.Millisecond
)

// resilScenario is one row of the matrix.
type resilScenario struct {
	Class   string `json:"class"`
	Faulted string `json:"faulted_node"`
	Serving string `json:"serving_node"`
	// The four graded columns.
	Detected      bool `json:"detected"`
	Recovered     bool `json:"recovered"`
	ByteIdentical bool `json:"byte_identical"`
	FailFast      bool `json:"fail_fast"`
	// Evidence.
	DetectionSignal string  `json:"detection_signal"`
	Route           string  `json:"route"`
	Status          int     `json:"status"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	BoundMS         float64 `json:"bound_ms"`
}

// failFastProbe is the terminal all-drained check.
type failFastProbe struct {
	Status          int     `json:"status"`
	RetryAfterSec   int     `json:"retry_after_seconds"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	BoundMS         float64 `json:"bound_ms"`
	Retryable       bool    `json:"retryable"`
	WellFormedRetry bool    `json:"well_formed_retry_after"`
	FailFast        bool    `json:"fail_fast"`
}

// resilNodeSummary is one node's resilience counters after the matrix.
type resilNodeSummary struct {
	Node             string                 `json:"node"`
	HopTimeouts      uint64                 `json:"hop_timeouts"`
	BreakerSkips     uint64                 `json:"breaker_skips"`
	BackoffSleeps    uint64                 `json:"backoff_sleeps"`
	StoreQuarantined uint64                 `json:"store_quarantined"`
	Breakers         map[string]resil.Stats `json:"breakers"`
}

// resilMatrixPayload is the artifact body (kind "resilmatrix").
type resilMatrixPayload struct {
	Nodes         int                `json:"nodes"`
	PlanTimeoutMS int                `json:"plan_timeout_ms"`
	HopGraceMS    int                `json:"hop_grace_ms"`
	Scenarios     []resilScenario    `json:"scenarios"`
	FailFastProbe failFastProbe      `json:"fail_fast_probe"`
	AllHandled    bool               `json:"all_handled"`
	WallClockMS   float64            `json:"wall_clock_ms"`
	PerNode       []resilNodeSummary `json:"per_node"`
}

// matrixBody builds one deadline-carrying estimate request; distinct
// seeds make distinct cache keys, so each scenario computes fresh work.
func matrixBody(runs int, seed uint64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"program":    map[string]any{"benchmark": efl.Benchmarks()[0].Code},
		"config":     map[string]any{"mid": 500},
		"runs":       runs,
		"seed":       seed,
		"skip_iid":   true,
		"timeout_ms": matrixTimeoutMS,
	})
}

// bodyHomedOn searches seeds from seedBase for a request whose home node
// on the fleet ring is f.IDs[home] — the matrix needs each fault to sit
// exactly on the routed path.
func bodyHomedOn(f *cluster.Fleet, home, runs int, seedBase uint64) ([]byte, string, error) {
	for s := seedBase; s < seedBase+500; s++ {
		body, err := matrixBody(runs, s)
		if err != nil {
			return nil, "", err
		}
		pl, err := f.Nodes[0].Service().PlanRequest("/v1/estimate", body)
		if err != nil {
			return nil, "", err
		}
		if f.Nodes[0].Owner(pl.Key) == f.IDs[home] {
			return body, pl.Key, nil
		}
	}
	return nil, "", fmt.Errorf("no seed in [%d,%d) hashes home to %s", seedBase, seedBase+500, f.IDs[home])
}

// matrixPost is one observed request.
type matrixObs struct {
	status     int
	route      string
	retryAfter string
	body       []byte
	elapsed    time.Duration
	err        error
}

func matrixPost(client *http.Client, url string, body []byte) matrixObs {
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return matrixObs{status: -1, elapsed: time.Since(t0), err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return matrixObs{
		status: resp.StatusCode, route: resp.Header.Get(cluster.RouteHeader),
		retryAfter: resp.Header.Get("Retry-After"), body: data,
		elapsed: time.Since(t0), err: err,
	}
}

func runResilMatrix(nodes int, storeDir string, seed uint64, runs int, out string) error {
	if nodes <= 0 {
		nodes = 3
	}
	if nodes < 3 {
		return fmt.Errorf("resilmatrix needs at least 3 nodes (partition keeps a third party connected)")
	}
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "eflstore")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	start := time.Now()

	// The fleet under fault, and a clean reference fleet that defines the
	// canonical bytes every degraded success must reproduce. Both build
	// the identical ring (same IDs, same virtual-node count), so a body's
	// home node agrees across them.
	f, err := cluster.StartFleet(cluster.FleetOptions{
		Nodes: nodes, StoreDir: storeDir, HopGrace: matrixHopGrace, BreakerThreshold: 2,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	clean, err := cluster.StartFleet(cluster.FleetOptions{Nodes: nodes})
	if err != nil {
		return err
	}
	defer clean.Close()

	client := &http.Client{Timeout: 2 * time.Minute}
	hopBudget, err := resil.HopBudget(matrixTimeoutMS*time.Millisecond, matrixHopGrace)
	if err != nil {
		return err
	}
	// Bounds: a scenario whose fault burns a full hop budget (the hung
	// peer) may take budget + compute + slack; every other fault fails at
	// the transport layer in milliseconds and gets a small constant bound.
	slowBound := hopBudget + 4*time.Second
	fastBound := 4 * time.Second

	baseline := func(body []byte) ([]byte, error) {
		obs := matrixPost(client, clean.URLs[0], body)
		if obs.err != nil || obs.status != http.StatusOK {
			return nil, fmt.Errorf("clean fleet refused the baseline request: status=%d err=%v", obs.status, obs.err)
		}
		return obs.body, nil
	}

	var scenarios []resilScenario
	grade := func(class string, faulted, serving int, obs matrixObs, ref []byte,
		bound time.Duration, detected bool, signal string) {
		sc := resilScenario{
			Class: class, Faulted: f.IDs[faulted], Serving: f.IDs[serving],
			Detected: detected, DetectionSignal: signal,
			Recovered:     obs.err == nil && obs.status == http.StatusOK,
			ByteIdentical: obs.err == nil && ref != nil && bytes.Equal(obs.body, ref),
			FailFast:      obs.elapsed <= bound,
			Route:         obs.route, Status: obs.status,
			ElapsedMS: float64(obs.elapsed.Microseconds()) / 1000,
			BoundMS:   float64(bound.Microseconds()) / 1000,
		}
		scenarios = append(scenarios, sc)
		fmt.Printf("resilmatrix: %-15s detected=%-5v recovered=%-5v byte-identical=%-5v fail-fast=%-5v (%.0fms <= %.0fms, route=%s, signal=%s)\n",
			sc.Class, sc.Detected, sc.Recovered, sc.ByteIdentical, sc.FailFast,
			sc.ElapsedMS, sc.BoundMS, sc.Route, sc.DetectionSignal)
	}

	// --- peer-slow: the home node accepts the forward and never answers;
	// the serving node must abandon the hop when the budget expires and
	// steal the work, attributing the stall to hop_timeouts.
	{
		const faulted, serving = 1, 0
		body, _, err := bodyHomedOn(f, faulted, runs, 1000)
		if err != nil {
			return err
		}
		ref, err := baseline(body)
		if err != nil {
			return err
		}
		pre := f.Nodes[serving].Snapshot().HopTimeouts
		f.Slow(faulted, true)
		obs := matrixPost(client, f.URLs[serving], body)
		f.Slow(faulted, false)
		post := f.Nodes[serving].Snapshot().HopTimeouts
		grade(string(fault.PeerSlow), faulted, serving, obs, ref, slowBound,
			post > pre, fmt.Sprintf("hop_timeouts %d -> %d", pre, post))
	}

	// --- partition: the serving node loses the wire to the home node (a
	// third party still sees both); the dial fails immediately and the
	// breaker records the failure.
	{
		const faulted, serving = 2, 0
		body, _, err := bodyHomedOn(f, faulted, runs, 2000)
		if err != nil {
			return err
		}
		ref, err := baseline(body)
		if err != nil {
			return err
		}
		pre := f.Nodes[serving].Snapshot().Breakers[f.IDs[faulted]].ConsecutiveFailures
		f.Partition(serving, faulted)
		obs := matrixPost(client, f.URLs[serving], body)
		f.Heal()
		post := f.Nodes[serving].Snapshot().Breakers[f.IDs[faulted]].ConsecutiveFailures
		grade(string(fault.Partition), faulted, serving, obs, ref, fastBound,
			post > pre, fmt.Sprintf("breaker[%s].consecutive_failures %d -> %d", f.IDs[faulted], pre, post))
	}

	// --- store-corrupt: a finished campaign's shared-store entry rots on
	// disk; a node that never cached the result must quarantine the entry
	// (miss, file moved to corrupt/) and fetch clean bytes from the fleet
	// instead of serving rot.
	{
		const faulted, serving = 1, 2
		body, key, err := bodyHomedOn(f, faulted, runs, 3000)
		if err != nil {
			return err
		}
		ref, err := baseline(body)
		if err != nil {
			return err
		}
		// Compute at the home node so the store holds the entry.
		if obs := matrixPost(client, f.URLs[faulted], body); obs.err != nil || obs.status != http.StatusOK {
			return fmt.Errorf("store-corrupt setup compute failed: status=%d err=%v", obs.status, obs.err)
		}
		if err := cluster.CorruptStoreEntry(storeDir, key); err != nil {
			return err
		}
		pre := f.Nodes[serving].Snapshot().StoreQuarantined
		obs := matrixPost(client, f.URLs[serving], body)
		post := f.Nodes[serving].Snapshot().StoreQuarantined
		grade(string(fault.StoreCorrupt), faulted, serving, obs, ref, fastBound,
			post > pre, fmt.Sprintf("store_quarantined %d -> %d", pre, post))
	}

	// --- flaky-transport: the home node resets every compute response
	// mid-body; the serving node sees a truncated read and steals.
	{
		const faulted, serving = 2, 1
		body, _, err := bodyHomedOn(f, faulted, runs, 4000)
		if err != nil {
			return err
		}
		ref, err := baseline(body)
		if err != nil {
			return err
		}
		pre := f.Nodes[serving].Snapshot().Breakers[f.IDs[faulted]].ConsecutiveFailures
		f.Flaky(faulted, 1)
		obs := matrixPost(client, f.URLs[serving], body)
		f.Flaky(faulted, 0)
		post := f.Nodes[serving].Snapshot().Breakers[f.IDs[faulted]].ConsecutiveFailures
		grade(string(fault.FlakyTransport), faulted, serving, obs, ref, fastBound,
			post > pre, fmt.Sprintf("breaker[%s].consecutive_failures %d -> %d", f.IDs[faulted], pre, post))
	}

	// --- node-drop: the home node dies outright (listener and every open
	// connection closed); the dial is refused and the work stolen.
	{
		const faulted, serving = 1, 0
		body, _, err := bodyHomedOn(f, faulted, runs, 5000)
		if err != nil {
			return err
		}
		ref, err := baseline(body)
		if err != nil {
			return err
		}
		f.Drop(faulted)
		obs := matrixPost(client, f.URLs[serving], body)
		grade(string(fault.NodeDrop), faulted, serving, obs, ref, fastBound,
			obs.route == cluster.RouteSteal, "route=steal past refused dial")
	}

	// --- fail-fast probe: drain every surviving service, then ask for
	// fresh work. Nothing can serve; the contract is a FAST retryable
	// refusal with a well-formed Retry-After — never a hang.
	var probe failFastProbe
	{
		body, _, err := bodyHomedOn(f, 0, runs, 6000)
		if err != nil {
			return err
		}
		for _, n := range f.Nodes {
			n.Service().Close()
		}
		probeBound := 4 * time.Second
		obs := matrixPost(client, f.URLs[0], body)
		ra, raErr := strconv.Atoi(obs.retryAfter)
		probe = failFastProbe{
			Status: obs.status, ElapsedMS: float64(obs.elapsed.Microseconds()) / 1000,
			BoundMS:   float64(probeBound.Microseconds()) / 1000,
			Retryable: obs.status == http.StatusServiceUnavailable || obs.status == http.StatusTooManyRequests,
			FailFast:  obs.err == nil && obs.elapsed <= probeBound,
		}
		if raErr == nil {
			probe.RetryAfterSec = ra
			probe.WellFormedRetry = ra >= 1
		}
		fmt.Printf("resilmatrix: fail-fast probe  status=%d retry-after=%ds fail-fast=%v (%.0fms <= %.0fms)\n",
			probe.Status, probe.RetryAfterSec, probe.FailFast, probe.ElapsedMS, probe.BoundMS)
	}

	payload := resilMatrixPayload{
		Nodes: nodes, PlanTimeoutMS: matrixTimeoutMS,
		HopGraceMS: int(matrixHopGrace / time.Millisecond),
		Scenarios:  scenarios, FailFastProbe: probe,
		WallClockMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	payload.AllHandled = probe.Retryable && probe.WellFormedRetry && probe.FailFast
	for _, sc := range scenarios {
		if !(sc.Detected && sc.Recovered && sc.ByteIdentical && sc.FailFast) {
			payload.AllHandled = false
		}
	}
	for _, n := range f.Nodes {
		snap := n.Snapshot()
		payload.PerNode = append(payload.PerNode, resilNodeSummary{
			Node: snap.Node, HopTimeouts: snap.HopTimeouts,
			BreakerSkips: snap.BreakerSkips, BackoffSleeps: snap.BackoffSleeps,
			StoreQuarantined: snap.StoreQuarantined, Breakers: snap.Breakers,
		})
	}

	if out != "" {
		if err := artifact.Write(out, "resilmatrix", seed, payload); err != nil {
			return err
		}
		fmt.Printf("resilmatrix: artifact written to %s\n", out)
	}
	if !payload.AllHandled {
		return fmt.Errorf("resilience matrix has an unhandled cell (see scenario rows above)")
	}
	fmt.Printf("resilmatrix: PASS (%d fault classes + fail-fast probe, wall clock %.1fs, every fault detected, recovered byte-identical, bounded)\n",
		len(scenarios), payload.WallClockMS/1000)
	return nil
}
