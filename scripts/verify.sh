#!/usr/bin/env bash
# verify.sh — the repo's verification gate: static checks, full build,
# full test suite, the race detector on every package except the long
# experiments campaigns, the campaign, service and fleet smokes, and the
# bench gate. CI runs this script, then the perfbench oracle. Run from
# anywhere:
#
#   ./scripts/verify.sh          # everything (full test suite is slow: ~2min)
#   SHORT=1 ./scripts/verify.sh  # skip the long experiments suite
#
# `make verify` is an alias for the full run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: these files need formatting:"; echo "$unformatted"; exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

if [[ "${SHORT:-}" == 1 ]]; then
    echo "== go test (short: skipping internal/experiments)"
    go test -count=1 $(go list ./... | grep -v internal/experiments)
else
    echo "== go test ./..."
    go test -count=1 ./...
fi

echo "== go test -race (all packages except the long experiments campaigns)"
# The experiments campaigns already run race-relevant code (runner pool,
# shared auditor, campaign tracker) through the packages below; repeating
# the full multi-minute campaigns under the race detector would multiply
# the gate's runtime for no extra interleaving coverage.
go test -race -count=1 $(go list ./... | grep -v internal/experiments)

echo "== go test ./internal/sim on one P (stall producers and the event loop progress by parking alone)"
GOMAXPROCS=1 go test -count=1 ./internal/sim

echo "== fuzz: packed replay traces vs the interpreter (10s)"
# Random programs from isa's decoder, their traces packed at two line
# sizes and exact, replayed against interpretation (the checked-in seed
# corpus also runs in every go test).
go test -run XXX -fuzz FuzzReplayMatchesInterpreter -fuzztime 10s ./internal/cpu

echo "== audited campaign smoke (artifacts + parallel engine + -audit soundness invariants)"
smokedir=$(mktemp -d)
go run ./cmd/experiments -exp iid -runs 40 -parallel 2 -audit -out "$smokedir" >/dev/null
test -s "$smokedir/iid.json" || { echo "iid: artifact missing"; exit 1; }
grep -q '"audit"' "$smokedir/iid.json" || { echo "iid: artifact missing audit block"; exit 1; }
go run ./cmd/experiments -exp attrib -audit -out "$smokedir" >/dev/null
test -s "$smokedir/attrib.json" || { echo "attrib: artifact missing"; exit 1; }

echo "== converged-campaign smoke (convergence stopping + replayed stream, auditor on)"
# A convergence-stopped fig4 campaign through the replayed per-index
# stream with the soundness auditor armed: every consumed run is checked
# against invariants A1-A4, and the EVT cross-check covers the
# convergence-stopped samples. Exit 0 means the converged path is sound.
go run ./cmd/experiments -exp fig4 -workloads 12 -runs 150 -converge -audit -out "$smokedir" >/dev/null
test -s "$smokedir/fig4.json" || { echo "fig4: artifact missing"; exit 1; }
grep -q '"audit"' "$smokedir/fig4.json" || { echo "fig4: artifact missing audit block"; exit 1; }
rm -rf "$smokedir"

echo "== coherence-campaign smoke (3-level hierarchy + MSI shared data, invariants A1-A5)"
# The shared-data workloads on a private-L1 -> shared-L2 -> shared-LLC
# platform with the coherence layer on: every run is audited (A1 cycle
# sum incl. the coherence category, A2 UBD, A3 eviction rate under
# invalidation load, A5 protocol soundness from the replayed trace).
# Exit 0 means every invariant held on every run.
cohdir=$(mktemp -d)
go run ./cmd/experiments -exp coherence -audit -out "$cohdir" >/dev/null
grep -q '"all_sound": true' "$cohdir/coherence.json" || { echo "coherence: invariant violation in artifact"; exit 1; }
grep -q '"a3_holds": true' "$cohdir/coherence.json" || { echo "coherence: A3 eviction-rate bound did not hold"; exit 1; }
grep -q '"a5_holds": true' "$cohdir/coherence.json" || { echo "coherence: A5 protocol soundness did not hold"; exit 1; }
rm -rf "$cohdir"

echo "== tracesweep smoke (synthetic trace grid: generate -> replay -> MBPTA fit, audited deployment)"
# The four-scenario synthetic-trace grid (locality / streaming / shared /
# stride) generated deterministically, replayed into programs and pushed
# through the full pipeline with the auditor armed: an MBPTA fit per
# scenario plus audited deployment runs (A1-A3 everywhere, A5 on the
# sharing scenario). Exit 0 + all_sound means traced workloads are
# first-class citizens of the estimator.
tsdir=$(mktemp -d)
go run ./cmd/experiments -exp tracesweep -runs 60 -audit -out "$tsdir" >/dev/null
grep -q '"all_sound": true' "$tsdir/tracesweep.json" || { echo "tracesweep: invariant violation in artifact"; exit 1; }
grep -q '"a3_holds": true' "$tsdir/tracesweep.json" || { echo "tracesweep: A3 eviction-rate bound did not hold"; exit 1; }
rm -rf "$tsdir"

echo "== bench regression gate (vs committed BENCH_SIM.json)"
# The fresh report goes to a scratch path: the gate compares against the
# committed baseline without touching it (regenerate deliberately with
# `make bench`). Tolerance is loose here — verify runs on whatever
# machine the developer has, and runs/sec only compare strictly on the
# baseline host.
benchdir=$(mktemp -d)
go run ./cmd/experiments -exp bench -benchtol 0.5 -benchout "$benchdir/bench.json" >/dev/null
rm -rf "$benchdir"

echo "== faultmatrix smoke (fault injection vs auditor, panic isolation, degraded exit)"
# Built binary, not `go run`: go run collapses every nonzero child exit to 1,
# and the degraded exit code (3) is exactly what this smoke asserts.
fmdir=$(mktemp -d)
svcdir=$(mktemp -d)
trap 'rm -rf "$fmdir" "$svcdir"' EXIT
go build -o "$fmdir/experiments" ./cmd/experiments
set +e
"$fmdir/experiments" -exp faultmatrix -out "$fmdir" >/dev/null
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "faultmatrix: want degraded exit code 3, got $code (1 = detection gap or control false positive)"
    exit 1
fi
# Every injected fault class detected (and the control clean) ...
grep -q '"all_detected": true' "$fmdir/faultmatrix.json" || { echo "faultmatrix: detection gap in artifact"; exit 1; }
# ... and the deliberate job panic was isolated, not fatal: the campaign
# still produced a complete artifact with the panic recorded per-job.
grep -q '"status": "panicked"' "$fmdir/faultmatrix.json" || { echo "faultmatrix: job-panic row missing/not isolated"; exit 1; }
grep -q '"status": "watchdog"' "$fmdir/faultmatrix.json" || { echo "faultmatrix: watchdog kill row missing"; exit 1; }

echo "== estimation service smoke (eflserved: fresh vs cached estimate, audit-clean, graceful drain)"
go build -o "$svcdir/eflserved" ./cmd/eflserved
go build -o "$svcdir/eflload" ./cmd/eflload
"$svcdir/eflserved" -addr 127.0.0.1:0 -addrfile "$svcdir/addr" 2>/dev/null &
svcpid=$!
for _ in $(seq 100); do [[ -s "$svcdir/addr" ]] && break; sleep 0.1; done
[[ -s "$svcdir/addr" ]] || { echo "eflserved did not bind"; exit 1; }
# The smoke POSTs one audited estimate twice and asserts miss-then-hit with
# byte-identical bodies and a violation-free audit block, plus a static
# round trip (seed 2 passes the i.i.d. gate at 60 runs; pinned by tests)
# and the trace-ingestion loop: a generated trace uploads under its
# SHA-256, an audited estimate by trace_hash computes clean, and the
# re-request replays byte-identically from the cache.
"$svcdir/eflload" -smoke -addr "$(cat "$svcdir/addr")" -runs 60 -seed 2
kill -TERM "$svcpid"
wait "$svcpid" || { echo "eflserved did not drain cleanly on SIGTERM"; exit 1; }

echo "== loadtest smoke (deterministic mixed workload, artifact with throughput + latency percentiles)"
"$svcdir/eflload" -duration 3s -concurrency 2 -runs 40 -out "$svcdir/loadtest.json"
grep -q '"kind": "loadtest"' "$svcdir/loadtest.json" || { echo "loadtest: artifact missing kind"; exit 1; }
grep -q '"throughput_rps"' "$svcdir/loadtest.json" || { echo "loadtest: artifact missing throughput"; exit 1; }
grep -q '"p99"' "$svcdir/loadtest.json" || { echo "loadtest: artifact missing latency percentiles"; exit 1; }

echo "== cluster smoke (3-node fleet: cross-node byte-identity, chaos panic, node kill, degraded-but-clean)"
# The fleet smoke drives a hermetic 3-node cluster over real loopback
# TCP: fresh audited estimate on the home node -> byte-identical
# cross-node hit from every other node -> injected job panic surfaces
# as a retryable 500 and the retry is clean -> a node is killed and the
# surviving fleet still answers byte-identically with a clean audit.
# The run fails if cross-node hits stay at zero.
"$svcdir/eflload" -fleet 3 -smoke -chaos -runs 60 -seed 2 -out "$svcdir/fleet.json"
grep -q '"kind": "fleetload"' "$svcdir/fleet.json" || { echo "cluster: artifact missing fleetload kind"; exit 1; }
grep -q '"cross_node_hit_rate"' "$svcdir/fleet.json" || { echo "cluster: artifact missing cross-node hit rate"; exit 1; }
if grep -q '"cross_node_hit_rate": 0,' "$svcdir/fleet.json"; then
    echo "cluster: cross-node hit rate is zero — routing never shared work"; exit 1
fi
grep -q '"per_node"' "$svcdir/fleet.json" || { echo "cluster: artifact missing per-node breakdown"; exit 1; }

echo "== resilience matrix smoke (byzantine classes: slow, partition, corrupt store, flaky, drop)"
# One scenario per byzantine fault class on a 3-node fleet, each graded
# detected / recovered / byte-identical / fail-fast, plus an all-drained
# probe asserting the fleet fails fast and retryably (Retry-After >= 1s)
# instead of hanging. The binary exits nonzero on any unhandled cell; the
# greps assert the committed-artifact shape on top.
"$svcdir/eflload" -exp resilmatrix -runs 40 -seed 1 -out "$svcdir/resil.json"
grep -q '"kind": "resilmatrix"' "$svcdir/resil.json" || { echo "resilmatrix: artifact missing kind"; exit 1; }
grep -q '"all_handled": true' "$svcdir/resil.json" || { echo "resilmatrix: unhandled fault cell"; exit 1; }
for class in peer-slow partition store-corrupt flaky-transport node-drop; do
    grep -q "\"class\": \"$class\"" "$svcdir/resil.json" || { echo "resilmatrix: missing $class row"; exit 1; }
done
grep -q '"well_formed_retry_after": true' "$svcdir/resil.json" || { echo "resilmatrix: fail-fast probe lacks a well-formed Retry-After"; exit 1; }

echo "verify: OK"
