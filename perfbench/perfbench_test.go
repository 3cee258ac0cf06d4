package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"
)

func mustTraces(t *testing.T) traceSet {
	t.Helper()
	ts, err := generateTraces()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func mustRefs(t *testing.T, wl string) *refTable {
	t.Helper()
	refs, err := loadRefs("refs", wl)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// inputs renders every workload's generated inputs for seed as bytes.
func inputs(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	ts := mustTraces(t)
	out := map[string][]byte{}
	var b bytes.Buffer
	for _, e := range coldSequence(seed, 3, ts) {
		fmt.Fprintf(&b, "%s %s\n", e.ID, e.Body)
	}
	out["estimate-cold"] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	keys, err := warmKeySet(seed, ts, mustRefs(t, "estimate-warm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range warmSequence(seed, 4, len(keys)) {
		fmt.Fprintf(&b, "%s %s\n", keys[i].ID, keys[i].Body)
	}
	out["estimate-warm"] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	for _, r := range deploySequence(seed, 3) {
		fmt.Fprintf(&b, "%s %d\n", r.ID, r.Seed)
	}
	out["deploy-mix"] = append([]byte(nil), b.Bytes()...)
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := inputs(t, 1), inputs(t, 1), inputs(t, 7919)
	for wl := range a {
		if !bytes.Equal(a[wl], b[wl]) {
			t.Errorf("%s: seed 1 generated different inputs on two calls", wl)
		}
		if bytes.Equal(a[wl], other[wl]) {
			t.Errorf("%s: seeds 1 and 7919 generated identical inputs", wl)
		}
	}
}

// shapeCounts is a run's composition: operations per shape, ignoring
// which pool candidate each took.
func shapeCounts(ids []string) map[string]int {
	out := map[string]int{}
	for _, id := range ids {
		out[id[:bytes.LastIndexByte([]byte(id), '/')]]++
	}
	return out
}

func TestCompositionIndependentOfSeed(t *testing.T) {
	ts := mustTraces(t)
	compose := func(seed uint64) (cold, deploy map[string]int) {
		var c, d []string
		for _, e := range coldSequence(seed, 3, ts) {
			c = append(c, e.ID)
		}
		for _, r := range deploySequence(seed, 4) {
			d = append(d, r.ID)
		}
		return shapeCounts(c), shapeCounts(d)
	}
	c1, d1 := compose(1)
	c2, d2 := compose(7919)
	if fmt.Sprint(c1) != fmt.Sprint(c2) || fmt.Sprint(d1) != fmt.Sprint(d2) {
		t.Fatal("the mix of request shapes depends on the seed")
	}
	kinds := map[string]int{}
	for id, n := range c1 {
		kinds[id[bytes.IndexByte([]byte(id), '/')+1:]] += n
	}
	// 108 requests: a third converged, a quarter audited, one in twelve on
	// the hierarchy.
	if kinds["converge"]+kinds["converge-audit"] != 36 || kinds["audit"]+kinds["converge-audit"] != 27 || kinds["hierarchy"] != 9 {
		t.Fatalf("cold request kinds %v", kinds)
	}
}

// TestBestOf pins how timing rounds merge: each operation keeps its
// fastest round, and one that failed in any round has no latency.
func TestBestOf(t *testing.T) {
	var a, b, c tally
	for _, d := range []time.Duration{5, 9, 4} {
		a.ok(d)
	}
	b.ok(7)
	b.ok(3)
	b.fail(fmt.Errorf("op 2"))
	for _, d := range []time.Duration{6, 8, 1} {
		c.ok(d)
	}
	best, attempted, failed, errs := bestOf([]tally{a, b, c})
	if fmt.Sprint(best) != fmt.Sprint([]time.Duration{5, 3, -1}) || attempted != 9 || failed != 1 || len(errs) != 1 {
		t.Fatalf("bestOf = %v, %d attempted, %d failed, %v", best, attempted, failed, errs)
	}
	if got := succeeded(best); fmt.Sprint(got) != fmt.Sprint([]time.Duration{5, 3}) {
		t.Fatalf("succeeded = %v", got)
	}
}

func TestEveryCandidateHasAReference(t *testing.T) {
	ts := mustTraces(t)
	check := func(wl string, ids []string) {
		refs := mustRefs(t, wl)
		for _, id := range ids {
			if _, ok := refs.Entries[id]; !ok {
				t.Errorf("%s: candidate %s has no reference entry", wl, id)
			}
		}
		if len(refs.Entries) != len(ids) {
			t.Errorf("%s: %d reference entries for %d candidates", wl, len(refs.Entries), len(ids))
		}
	}
	var ids []string
	for _, e := range coldPool(ts) {
		ids = append(ids, e.ID)
	}
	check("estimate-cold", ids)
	ids = nil
	for _, e := range warmPool(ts) {
		ids = append(ids, e.ID)
	}
	check("estimate-warm", ids)
	ids = nil
	for _, r := range deployPool() {
		ids = append(ids, r.ID)
	}
	check("deploy-mix", ids)
}

// declared reads the metric names BENCHMARK.json declares, when the file
// is present next to the benchmark's directory.
func declared(t *testing.T) (e2e, layer map[string]string, ok bool) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, nil, false
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer, true
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("%s: metric name %q", label, name)
		}
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", label, name)
		}
		if want != nil && want[name] != m.Unit {
			t.Errorf("%s: metric %s unit %q, declared %q", label, name, m.Unit, want[name])
		}
	}
	if want != nil {
		var missing []string
		for name := range want {
			if _, ok := got[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: declared metrics not reported: %v", label, missing)
		}
	}
}

func TestLayerMetricNames(t *testing.T) {
	got := map[string]metric{}
	for name, unit := range layerMetrics {
		got[name] = metric{1, unit}
	}
	_, layer, _ := declared(t)
	checkMetrics(t, "per-layer", got, layer)
}

// TestSmoke runs every workload at a tiny scale, untraced and traced: no
// operation may fail, every output must match its reference, and every
// declared metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	e2e, layer, _ := declared(t)
	for _, wl := range []string{"estimate-cold", "estimate-warm", "deploy-mix"} {
		for _, traced := range []bool{false, true} {
			e := &env{workload: wl, seed: 3, seconds: 1, refDir: "refs", outDir: t.TempDir(), smoke: true}
			res, err := run(e, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			checkMetrics(t, fmt.Sprintf("%s traced=%v", wl, traced), res.Metrics, want)
		}
	}
}
