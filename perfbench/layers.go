package main

// The layer suite: the traced run's second half. It times each layer's
// public functions directly, on the workload's own programs and traces,
// so every per-layer metric has a value on every workload. A metric the
// workload's traced pass measured on its own operations takes precedence
// over the suite's value (see run); README.md lists which pass supplies
// each metric on each workload.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"
	"unsafe"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/cluster"
	"efl/internal/cpu"
	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/rng"
	"efl/internal/rnghash"
	"efl/internal/runner"
	"efl/internal/service"
	"efl/internal/sim"
	"efl/internal/spta"
	"efl/internal/workload"
)

// layerMetrics is every per-layer metric with its unit.
var layerMetrics = map[string]string{
	"service.plan_us":              "us",
	"service.execute_hit_us":       "us",
	"service.execute_miss_ms":      "ms",
	"service.alloc_kb_per_request": "KiB",
	"service.cache_hit_ratio":      "ratio",
	"cluster.route_forward_us":     "us",
	"cluster.ring_sequence_ns":     "ns",
	"cluster.forward_share":        "ratio",
	"bench.build_us":               "us",
	"isa.encode_us":                "us",
	"isa.assemble_us":              "us",
	"workload.replay_compile_us":   "us",
	"workload.validate_mib_s":      "MiB/s",
	"workload.generate_ms":         "ms",
	"sim.analysis_run_us":          "us",
	"sim.stream_run_us":            "us",
	"sim.stream_useful_ratio":      "ratio",
	"sim.audit_overhead_ratio":     "ratio",
	"sim.platform_get_ms":          "ms",
	"sim.deploy_run_ms.efl":        "ms",
	"sim.deploy_run_ms.cp":         "ms",
	"sim.deploy_run_ms.multilevel": "ms",
	"sim.deploy_run_ms.coherent":   "ms",
	"sim.deploy_ns_per_instr":      "ns",
	"sim.minstr_per_s":             "Minstr/s",
	"cpu.record_trace_ms":          "ms",
	"cpu.trace_mib_per_run":        "MiB",
	"cache.access_ns":              "ns",
	"rnghash.set_ns":               "ns",
	"mbpta.iid_us":                 "us",
	"mbpta.fit_us":                 "us",
	"mbpta.stream_add_us":          "us",
	"mbpta.crosscheck_us":          "us",
	"trace.overhead_ratio":         "ratio",
}

func missingLayerMetrics(got map[string]metric) []string {
	var out []string
	for name := range layerMetrics {
		if _, ok := got[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}

// traceEntryBytes is the size of one replay-trace entry: a replayed run
// streams Len() of them.
const traceEntryBytes = float64(unsafe.Sizeof(cpu.TraceEntry{}))

type namedProg struct {
	name string
	prog *isa.Program
}

// suiteRun carries the suite's tracer and collected metrics.
type suiteRun struct {
	tr    *tracer
	from  int // first span of the suite: its metrics ignore earlier spans
	out   map[string]metric
	reps  int
	group int // parent span of the current probe group
}

// timed runs f n times, each inside a span named name under the current
// group, recording work units per call.
func (s *suiteRun) timed(name string, n int, work float64, f func() error) error {
	for i := 0; i < n; i++ {
		sp := s.tr.begin(name, -1, s.group)
		err := f()
		s.tr.end(sp, work)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func (s *suiteRun) set(name string, v float64) {
	s.out[name] = metric{v, layerMetrics[name]}
}

// perUnit sets name to the median per-work-unit duration of its spans.
func (s *suiteRun) perUnit(name, span string, unit time.Duration) {
	s.set(name, median(s.tr.perUnitFrom(s.from, span, unit)))
}

func (s *suiteRun) groupRun(name string, f func() error) error {
	g := s.tr.begin("suite."+name, -1, -1)
	s.group = g
	err := f()
	s.tr.end(g, 1)
	s.group = -1
	return err
}

// layerSuite measures every layer, on the workload's programs where a
// layer takes a program.
func layerSuite(tr *tracer, progs []namedProg, smoke bool) (map[string]metric, error) {
	s := &suiteRun{tr: tr, from: len(tr.spans), out: map[string]metric{}, reps: 5, group: -1}
	if smoke {
		s.reps = 1
	}
	for _, g := range []struct {
		name string
		f    func(*suiteRun, []namedProg) error
	}{
		{"resolution", suiteResolution},
		{"cpu", suiteCPU},
		{"cache", suiteCache},
		{"analysis", suiteAnalysis},
		{"deploy", suiteDeploy},
		{"serving", suiteServing},
	} {
		if err := s.groupRun(g.name, func() error { return g.f(s, progs) }); err != nil {
			return nil, err
		}
	}
	return s.out, nil
}

// suiteResolution times program resolution: kernel builds, image
// encoding, assembly, trace generation, validation and replay compile.
func suiteResolution(s *suiteRun, _ []namedProg) error {
	for _, spec := range bench.AllWithExtended() {
		var prog *isa.Program
		if err := s.timed("bench.build", s.reps, 1, func() error { prog = spec.Build(); return nil }); err != nil {
			return err
		}
		if err := s.timed("isa.encode", s.reps, 1, func() error { _, err := isa.Encode(prog); return err }); err != nil {
			return err
		}
	}
	for i := range sourceParams {
		src := sourceText(i + 1)
		if err := s.timed("isa.assemble", s.reps, 1, func() error { _, err := isa.Assemble("src", src); return err }); err != nil {
			return err
		}
	}
	for _, g := range traceSpecs {
		var data []byte
		if err := s.timed("workload.generate", 2, 1, func() (err error) { data, err = g.Generate(); return err }); err != nil {
			return err
		}
		mib := float64(len(data)) / (1 << 20)
		if err := s.timed("workload.validate", s.reps, mib, func() error { _, err := workload.Validate(data); return err }); err != nil {
			return err
		}
		if err := s.timed("workload.replay_compile", s.reps, 1, func() error { _, err := workload.Replay("t", data); return err }); err != nil {
			return err
		}
	}
	s.perUnit("bench.build_us", "bench.build", time.Microsecond)
	s.perUnit("isa.encode_us", "isa.encode", time.Microsecond)
	s.perUnit("isa.assemble_us", "isa.assemble", time.Microsecond)
	s.perUnit("workload.generate_ms", "workload.generate", time.Millisecond)
	s.perUnit("workload.replay_compile_us", "workload.replay_compile", time.Microsecond)
	s.set("workload.validate_mib_s", 1/median(s.tr.perUnitFrom(s.from, "workload.validate", time.Second)))
	return nil
}

// probeProgs returns up to n of the workload's programs, spread over the
// list.
func probeProgs(progs []namedProg, n int) []namedProg {
	if len(progs) <= n {
		return progs
	}
	out := make([]namedProg, n)
	for i := range out {
		out[i] = progs[i*len(progs)/n]
	}
	return out
}

// suiteCPU records replay traces of the workload's programs.
func suiteCPU(s *suiteRun, progs []namedProg) error {
	var mib []float64
	for _, p := range probeProgs(progs, 6) {
		var tr *cpu.Trace
		if err := s.timed("cpu.record_trace", 1, 1, func() (err error) {
			tr, err = cpu.RecordTrace(p.prog, sim.DefaultConfig().MaxInstrPerCore)
			return err
		}); err != nil {
			return err
		}
		mib = append(mib, float64(tr.Len())*traceEntryBytes/(1<<20))
	}
	s.perUnit("cpu.record_trace_ms", "cpu.record_trace", time.Millisecond)
	var sum float64
	for _, m := range mib {
		sum += m
	}
	s.set("cpu.trace_mib_per_run", sum/float64(len(mib)))
	return nil
}

// sink keeps the compiler from eliding probe loops.
var sink int

// suiteCache replays the workload's line-address streams (spta.Trace)
// through an LLC-shaped cache and the placement hash.
func suiteCache(s *suiteRun, progs []namedProg) error {
	const maxLines = 400_000
	for _, p := range probeProgs(progs, 4) {
		lines, err := spta.Trace(p.prog, spta.TraceOptions{Instruction: true, Data: true})
		if err != nil {
			return fmt.Errorf("spta trace %s: %w", p.name, err)
		}
		if len(lines) > maxLines {
			lines = lines[:maxLines]
		}
		addrs := make([]uint64, len(lines))
		for i, l := range lines {
			// Data lines carry bit 62; keep them apart from code lines
			// below the address space's top.
			addrs[i] = (l&^(1<<62))<<4 | (l>>62&1)<<44
		}
		llc := cache.New(cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, LineBytes: 16, Policy: cache.TimeRandomised}, rng.New(1))
		mask := cache.FullMask(8)
		n := float64(len(addrs))
		if err := s.timed("cache.access", 3, n, func() error {
			for _, a := range addrs {
				if llc.Access(a, false, mask, 0).Hit {
					sink++
				}
			}
			return nil
		}); err != nil {
			return err
		}
		h := rnghash.New(512, rnghash.NewRII(rng.New(2)))
		if err := s.timed("rnghash.set", 3, n, func() error {
			for _, l := range lines {
				sink += h.Set(l)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	s.perUnit("cache.access_ns", "cache.access", time.Nanosecond)
	s.perUnit("rnghash.set_ns", "rnghash.set", time.Nanosecond)
	return nil
}

// analysisProbes are the programs the analysis probe campaigns run (the
// kernels every workload includes).
var analysisProbes = []string{"CA", "PN"}

// suiteAnalysis times the analysis path and the MBPTA pipeline on
// probe campaigns shaped like estimate-cold requests.
func suiteAnalysis(s *suiteRun, _ []namedProg) error {
	ctx := context.Background()
	cfg := sim.DefaultConfig().WithAnalysis(0)
	runs := fixedRuns
	var auditRatios, useful []float64
	for _, code := range analysisProbes {
		spec, err := bench.ByCode(code)
		if err != nil {
			return err
		}
		prog := spec.Build()
		progs := []*isa.Program{prog, nil, nil, nil}
		if err := s.timed("sim.platform_get", 3, 1, func() error {
			_, err := sim.NewPool().Get(cfg, progs, 1)
			return err
		}); err != nil {
			return err
		}
		pool := sim.NewPool()
		if _, err := pool.CollectAnalysisTimes(ctx, cfg, prog, 1, 1); err != nil {
			return err
		}
		// Plain and audited campaigns alternate so drift in host speed
		// affects both sides of the overhead ratio alike.
		var plain, audited []float64
		for r := 0; r < 3; r++ {
			for _, aud := range []*sim.Auditor{nil, sim.NewAuditor()} {
				name := "sim.analysis_run"
				if aud != nil {
					name = "sim.analysis_run_audited"
				}
				pool.SetAuditor(aud)
				if err := s.timed(name, 1, float64(runs), func() error {
					_, err := pool.CollectAnalysisTimes(ctx, cfg, prog, runs, seedBase)
					return err
				}); err != nil {
					return err
				}
				d := float64(s.tr.spans[len(s.tr.spans)-1].dur())
				if aud == nil {
					plain = append(plain, d)
				} else {
					audited = append(audited, d)
				}
			}
		}
		pool.SetAuditor(nil)
		auditRatios = append(auditRatios, median(audited)/median(plain))

		stream, err := mbpta.NewStream(mbpta.StreamOptions{Options: mbpta.Options{SkipIIDTests: true},
			Prob: 1e-15, MinRuns: 100, MaxRuns: streamCeiling})
		if err != nil {
			return err
		}
		var n int
		if err := s.timed("sim.stream", 1, 1, func() (err error) {
			n, err = pool.StreamAnalysisTimes(ctx, cfg, prog, 8, streamCeiling,
				func(i int) uint64 { return runner.Seed(seedBase, "run/"+strconv.Itoa(i)) }, stream.Add)
			return err
		}); err != nil {
			return err
		}
		s.tr.spans[len(s.tr.spans)-1].Work = float64(n)
		useful = append(useful, float64(n)/float64(streamLanes(n, streamCeiling)))

	}
	// The MBPTA probes fit a sample of the service's default size (300
	// runs); POT in the cross-check needs at least 100.
	spec, err := bench.ByCode(analysisProbes[0])
	if err != nil {
		return err
	}
	times, err := sim.NewPool().CollectAnalysisTimes(ctx, cfg, spec.Build(), 300, seedBase)
	if err != nil {
		return err
	}
	if err := s.timed("mbpta.iid", s.reps, 1, func() error { _, err := mbpta.TestIID(times); return err }); err != nil {
		return err
	}
	if err := s.timed("mbpta.fit", s.reps, 1, func() error {
		_, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: true})
		return err
	}); err != nil {
		return err
	}
	if err := s.timed("mbpta.stream_add", 1, float64(len(times)), func() error {
		st, err := mbpta.NewStream(mbpta.StreamOptions{Options: mbpta.Options{SkipIIDTests: true},
			Prob: 1e-15, MinRuns: len(times), MaxRuns: len(times)})
		if err != nil {
			return err
		}
		for _, t := range times {
			st.Add(t)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := s.timed("mbpta.crosscheck", s.reps, 1, func() error {
		_, _, _, err := mbpta.CrossCheck(times, 1e-3)
		return err
	}); err != nil {
		return err
	}
	s.perUnit("sim.platform_get_ms", "sim.platform_get", time.Millisecond)
	s.perUnit("sim.analysis_run_us", "sim.analysis_run", time.Microsecond)
	s.perUnit("sim.stream_run_us", "sim.stream", time.Microsecond)
	s.set("sim.audit_overhead_ratio", median(auditRatios))
	s.set("sim.stream_useful_ratio", median(useful))
	s.perUnit("mbpta.iid_us", "mbpta.iid", time.Microsecond)
	s.perUnit("mbpta.fit_us", "mbpta.fit", time.Microsecond)
	s.perUnit("mbpta.stream_add_us", "mbpta.stream_add", time.Microsecond)
	s.perUnit("mbpta.crosscheck_us", "mbpta.crosscheck", time.Microsecond)
	return nil
}

// suiteDeploy runs the first deploy-mix shape of each kind a few times.
func suiteDeploy(s *suiteRun, _ []namedProg) error {
	pool := sim.NewPool()
	seen := map[string]bool{}
	var res sim.Result
	var instr float64
	var busy time.Duration
	for _, sh := range deployShapes() {
		if seen[sh.Kind] {
			continue
		}
		seen[sh.Kind] = true
		progs, err := shapePrograms(sh)
		if err != nil {
			return err
		}
		cfg := shapeConfig(sh)
		for r := 0; r < 3; r++ {
			m, err := pool.Get(cfg, progs, seedBase+uint64(r))
			if err != nil {
				return err
			}
			if err := s.timed("sim.deploy_run."+sh.Kind, 1, 1, func() error { return m.RunInto(&res) }); err != nil {
				return err
			}
			busy += s.tr.spans[len(s.tr.spans)-1].dur()
			for _, c := range res.PerCore {
				instr += float64(c.Instrs)
			}
		}
		s.perUnit("sim.deploy_run_ms."+sh.Kind, "sim.deploy_run."+sh.Kind, time.Millisecond)
	}
	s.set("sim.deploy_ns_per_instr", float64(busy)/instr)
	s.set("sim.minstr_per_s", instr/1e6/busy.Seconds())
	return nil
}

// suiteServing times the service and cluster layers on a standalone
// server and a 2-node fleet, with kernel estimates at the warm run count.
func suiteServing(s *suiteRun, _ []namedProg) error {
	svc := service.New(service.Options{Workers: 1})
	defer svc.Close()
	bodies := make([][]byte, len(analysisProbes))
	for i, code := range analysisProbes {
		bodies[i] = newEstimate(progRef{Code: code}, kPlain, fixedRuns, 7, traceSet{}, "").Body
	}
	plan := func(b []byte) (*service.Plan, error) { return svc.PlanRequest("/v1/estimate", b) }
	execute := func(b []byte) error {
		pl, err := plan(b)
		if err != nil {
			return err
		}
		if _, _, serr := svc.Execute(pl); serr != nil {
			return serr
		}
		return nil
	}
	for _, b := range bodies {
		if err := s.timed("service.execute_miss", 1, 1, func() error { return execute(b) }); err != nil {
			return err
		}
	}
	before := svc.Snapshot().Cache
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hits := 0
	for r := 0; r < 10*s.reps; r++ {
		for _, b := range bodies {
			var pl *service.Plan
			if err := s.timed("service.plan", 1, 1, func() (err error) { pl, err = plan(b); return err }); err != nil {
				return err
			}
			if err := s.timed("service.execute_hit", 1, 1, func() error {
				if _, _, serr := svc.Execute(pl); serr != nil {
					return serr
				}
				return nil
			}); err != nil {
				return err
			}
			hits++
		}
	}
	runtime.ReadMemStats(&ms1)
	after := svc.Snapshot().Cache
	s.perUnit("service.execute_miss_ms", "service.execute_miss", time.Millisecond)
	s.perUnit("service.plan_us", "service.plan", time.Microsecond)
	s.perUnit("service.execute_hit_us", "service.execute_hit", time.Microsecond)
	s.set("service.alloc_kb_per_request", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(hits))
	s.set("service.cache_hit_ratio", ratio(float64(after.Hits-before.Hits), float64(after.Hits+after.Misses-before.Hits-before.Misses)))

	fleet, err := cluster.StartFleet(cluster.FleetOptions{Nodes: 2, Service: service.Options{Workers: 1}})
	if err != nil {
		return err
	}
	defer fleet.Close()
	n0 := fleet.Nodes[0]
	var keys []string
	var remote []byte
	homed1 := 0
	for _, code := range kernelCodes() {
		b := newEstimate(progRef{Code: code}, kPlain, fixedRuns, 7, traceSet{}, "").Body
		pl, err := n0.Service().PlanRequest("/v1/estimate", b)
		if err != nil {
			return err
		}
		keys = append(keys, pl.Key)
		if n0.Owner(pl.Key) != n0.ID() {
			homed1++
			if remote == nil {
				remote = b
			}
		}
	}
	s.set("cluster.forward_share", float64(homed1)/float64(len(keys)))
	if remote == nil {
		return fmt.Errorf("no kernel key homed on node-1")
	}
	serve := func() error {
		rec := httptest.NewRecorder()
		n0.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(remote)))
		if rec.Code != http.StatusOK || rec.Header().Get(cluster.RouteHeader) != cluster.RouteForward {
			return fmt.Errorf("forward probe: HTTP %d route %q", rec.Code, rec.Header().Get(cluster.RouteHeader))
		}
		return nil
	}
	if err := serve(); err != nil { // fills node-1's cache
		return err
	}
	if err := s.timed("cluster.route_forward", 10*s.reps, 1, serve); err != nil {
		return err
	}
	if err := s.timed("cluster.ring_sequence_batch", 3, float64(200*len(keys)), func() error {
		for r := 0; r < 200; r++ {
			for _, k := range keys {
				sink += len(n0.Sequence(k))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s.perUnit("cluster.route_forward_us", "cluster.route_forward", time.Microsecond)
	s.perUnit("cluster.ring_sequence_ns", "cluster.ring_sequence_batch", time.Nanosecond)
	return nil
}
