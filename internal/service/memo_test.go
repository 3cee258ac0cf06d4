package service

// Program-memo tests: a memoised resolution answers exactly like a fresh
// one (keys and bytes), concurrent planners share it safely, trace
// resolution is still checked on a memo hit, failures are never memoised,
// and a memo-hit plan stays cheap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"efl/internal/bench"
	"efl/internal/workload"
)

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kernelEstimateBody(t testing.TB, code string) []byte {
	return mustJSON(t, map[string]any{
		"program":  map[string]any{"benchmark": code},
		"config":   map[string]any{"mid": 500},
		"runs":     40,
		"skip_iid": true,
	})
}

// planExecute plans body on s and executes the plan, returning its key
// and response body.
func planExecute(t *testing.T, s *Server, path string, body []byte) (string, []byte) {
	t.Helper()
	pl, err := s.PlanRequest(path, body)
	if err != nil {
		t.Fatalf("plan %s: %v", body, err)
	}
	out, _, serr := s.Execute(pl)
	if serr != nil {
		t.Fatalf("execute %s: %v", body, serr)
	}
	return pl.Key, out
}

// TestProgramMemoMatchesFresh pins that the memo never changes an answer:
// for every kernel, a hot-set and a streaming uploaded trace, an inline
// source and a static request, the plan key and response bytes computed
// from a memoised program equal those of a server resolving it afresh.
func TestProgramMemoMatchesFresh(t *testing.T) {
	warm, warmTS := newTestServer(t, Options{Workers: 2})
	fresh, freshTS := newTestServer(t, Options{Workers: 2})
	type req struct {
		name, path string
		body       []byte
	}
	var reqs []req
	for _, spec := range bench.AllWithExtended() {
		if raceEnabled && spec.Code != "MA" && spec.Code != "BM" {
			continue // two kernels keep the -race run short
		}
		reqs = append(reqs, req{spec.Code, "/v1/estimate", kernelEstimateBody(t, spec.Code)})
	}
	for _, g := range []workload.GenSpec{
		{Name: "hot", Seed: 3, Records: 400, FootprintBytes: 16 << 10, Locality: 0.9, StoreFrac: 0.2, MeanGap: 2, BlockLen: 64},
		{Name: "stream", Seed: 4, Records: 400, FootprintBytes: 64 << 10, Locality: 0, StoreFrac: 0.2, MeanGap: 2, BlockLen: 64},
	} {
		data, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		up := uploadTrace(t, warmTS.URL, data)
		uploadTrace(t, freshTS.URL, data)
		reqs = append(reqs, req{"trace-" + g.Name, "/v1/estimate", traceEstimateBody(t, up.TraceHash, nil)})
	}
	reqs = append(reqs,
		req{"source", "/v1/estimate", estimateBody(t, tinySrc, 40, 3, nil)},
		req{"static", "/v1/static", mustJSON(t, map[string]any{
			"program": map[string]any{"source": tinySrc, "name": "tiny"},
			"model":   map[string]any{"sets": 64, "ways": 4, "hit_latency": 10, "miss_latency": 100},
			"trace":   map[string]any{"instruction": true, "data": true},
		})},
	)
	for _, r := range reqs {
		t.Run(r.name, func(t *testing.T) {
			// Fill the memo without touching the result cache, then
			// answer from the memoised program.
			if _, err := warm.PlanRequest(r.path, r.body); err != nil {
				t.Fatal(err)
			}
			memoised := warm.Snapshot().Cache.Misses
			warmKey, warmBody := planExecute(t, warm, r.path, r.body)
			if warm.Snapshot().Cache.Misses != memoised+1 {
				t.Fatal("the warm server did not compute the response")
			}
			freshKey, freshBody := planExecute(t, fresh, r.path, r.body)
			if warmKey != freshKey {
				t.Fatalf("memoised key %s, fresh key %s", warmKey, freshKey)
			}
			if !bytes.Equal(warmBody, freshBody) {
				t.Fatalf("memoised and fresh responses differ:\n%s\n%s", warmBody, freshBody)
			}
		})
	}
	warm.mu.Lock()
	n := warm.programs.Len()
	warm.mu.Unlock()
	if n != len(reqs) {
		t.Fatalf("memo holds %d programs, want %d", n, len(reqs))
	}
}

// TestProgramMemoShared pins that repeat resolutions return the one
// memoised program, so a worker's pool records its replay trace once.
func TestProgramMemoShared(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ps := ProgramSpec{Benchmark: "CA"}
	p1, sha1, err := s.buildProgram(ps)
	if err != nil {
		t.Fatal(err)
	}
	p2, sha2, err := s.buildProgram(ps)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || sha1 != sha2 {
		t.Fatal("a repeat resolution rebuilt the program")
	}
}

// TestProgramMemoConcurrent plans and executes shared and distinct specs
// from 8 goroutines on a 2-worker server; run under -race it checks the
// memo's locking and that sharing one program across workers is safe.
func TestProgramMemoConcurrent(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	shared := estimateBody(t, tinySrc, 40, 5, nil)
	distinct := func(g int) []byte {
		src := strings.Replace(tinySrc, "movi r2, 300", fmt.Sprintf("movi r2, %d", 200+g), 1)
		return estimateBody(t, src, 40, 5, map[string]any{
			"program": map[string]any{"source": src, "name": fmt.Sprintf("g%d", g)},
		})
	}
	const goroutines = 8
	sharedOut := make([][]byte, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for _, b := range [][]byte{shared, distinct(g), shared} {
				pl, err := s.PlanRequest("/v1/estimate", b)
				if err != nil {
					t.Error(err)
					return
				}
				out, _, serr := s.Execute(pl)
				if serr != nil {
					t.Error(serr)
					return
				}
				var resp EstimateResponse
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Error(err)
					return
				}
				if bytes.Equal(b, shared) {
					sharedOut[g] = out
				} else if want := fmt.Sprintf("g%d", g); resp.Program != want {
					t.Errorf("goroutine %d: response program %q, want %q", g, resp.Program, want)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !bytes.Equal(sharedOut[g], sharedOut[0]) {
			t.Fatalf("goroutine %d got different bytes for the shared spec", g)
		}
	}
}

// TestProgramMemoEvictedTrace pins that a memoised trace_hash program is
// not served once its trace is gone: the request answers the same 400 an
// unknown trace always did.
func TestProgramMemoEvictedTrace(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, TraceCacheEntries: 1})
	a := uploadTrace(t, ts.URL, genTestTrace(t, 21))
	body := traceEstimateBody(t, a.TraceHash, nil)
	if _, err := s.PlanRequest("/v1/estimate", body); err != nil {
		t.Fatalf("plan with the trace resident: %v", err)
	}
	uploadTrace(t, ts.URL, genTestTrace(t, 22)) // evicts a
	misses := s.Snapshot().Traces.Misses
	resp, data := postJSON(t, ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown trace") {
		t.Fatalf("evicted trace answered HTTP %d: %s", resp.StatusCode, data)
	}
	if got := s.Snapshot().Traces.Misses; got != misses+1 {
		t.Fatalf("trace misses %d -> %d, want one more", misses, got)
	}
}

// TestProgramMemoSkipsFailures pins that a failing spec answers the
// identical 400 every time and never enters the memo.
func TestProgramMemoSkipsFailures(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, prog := range []map[string]any{
		{"source": "bogus r1, r2"},
		{"benchmark": "CA", "source": tinySrc},
	} {
		body := mustJSON(t, map[string]any{"program": prog, "runs": 40})
		resp1, data1 := postJSON(t, ts.URL+"/v1/estimate", body)
		resp2, data2 := postJSON(t, ts.URL+"/v1/estimate", body)
		if resp1.StatusCode != http.StatusBadRequest || resp2.StatusCode != http.StatusBadRequest || !bytes.Equal(data1, data2) {
			t.Fatalf("%v: HTTP %d %s then HTTP %d %s, want the same 400 twice",
				prog, resp1.StatusCode, data1, resp2.StatusCode, data2)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.programs.Len(); n != 0 {
		t.Fatalf("memo holds %d entries after only failing requests", n)
	}
}

// TestPlanEstimateAllocs guards the memo-hit plan cost: decoding, config
// resolution and the cache-key hash remain, the program rebuild does not.
func TestPlanEstimateAllocs(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	body := kernelEstimateBody(t, "CA")
	if _, err := s.PlanRequest("/v1/estimate", body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.PlanRequest("/v1/estimate", body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Fatalf("memo-hit PlanRequest: %.0f allocations, want at most 30", allocs)
	}
}

// BenchmarkPlanEstimate times a memo-hit estimate plan.
func BenchmarkPlanEstimate(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	body := kernelEstimateBody(b, "CA")
	if _, err := s.PlanRequest("/v1/estimate", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PlanRequest("/v1/estimate", body); err != nil {
			b.Fatal(err)
		}
	}
}
