package service

// This file is the input boundary of the estimation service: the request
// and response JSON shapes, their validation, and the canonical cache-key
// derivation. Everything here follows two rules:
//
//  1. Sound inputs only. Every knob a request can set is validated before
//     any simulation work starts — the analysis facade's own validation
//     (negative-gap rejection, probability ranges, platform Validate) is
//     the backstop, never the first line. A request that fails validation
//     costs a JSON decode, not a campaign.
//
//  2. Canonical identity. The cache key of a request is a SHA-256 over a
//     *resolved* form (defaults applied, probabilities sorted and
//     deduplicated, the program content-addressed by its encoded image),
//     so two requests asking for the same computation in different
//     spellings coalesce onto one cache entry.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/sim"
)

// maxSourceBytes bounds inline assembler source (a service must not
// assemble unbounded request bodies).
const maxSourceBytes = 1 << 20

// ProgramSpec selects the code under analysis: a built-in benchmark kernel
// (two-letter code, including the extended set), inline assembler source,
// or an uploaded memory-access trace named by its content hash. Exactly
// one of Benchmark, Source and TraceHash must be set.
type ProgramSpec struct {
	Benchmark string `json:"benchmark,omitempty"`
	Source    string `json:"source,omitempty"`
	// TraceHash names a trace previously uploaded via POST /v1/trace (the
	// SHA-256 of its raw bytes); the replayed trace is the program under
	// analysis. Resolved by Server.buildProgram — it needs the server's
	// trace registry.
	TraceHash string `json:"trace_hash,omitempty"`
	// Name labels an inline Source program (default "request").
	Name string `json:"name,omitempty"`
}

// build constructs the program and returns it with its content hash (the
// SHA-256 of the encoded instruction/data image — the identity the result
// cache keys on).
func (ps ProgramSpec) build() (*isa.Program, string, error) {
	var prog *isa.Program
	switch {
	case ps.Benchmark != "" && ps.Source != "":
		return nil, "", fmt.Errorf("program: benchmark and source are mutually exclusive")
	case ps.Benchmark != "":
		spec, err := benchByCode(ps.Benchmark)
		if err != nil {
			return nil, "", err
		}
		prog = spec.Build()
	case ps.Source != "":
		if len(ps.Source) > maxSourceBytes {
			return nil, "", fmt.Errorf("program: source exceeds %d bytes", maxSourceBytes)
		}
		name := ps.Name
		if name == "" {
			name = "request"
		}
		var err error
		prog, err = isa.Assemble(name, ps.Source)
		if err != nil {
			return nil, "", fmt.Errorf("program: %w", err)
		}
	default:
		return nil, "", fmt.Errorf("program: set benchmark, source or trace_hash")
	}
	return withContentHash(prog)
}

// withContentHash returns prog with the SHA-256 of its isa.Encode image.
func withContentHash(prog *isa.Program) (*isa.Program, string, error) {
	image, err := isa.Encode(prog)
	if err != nil {
		return nil, "", fmt.Errorf("program: %w", err)
	}
	sum := sha256.Sum256(image)
	return prog, hex.EncodeToString(sum[:]), nil
}

// benchByCode resolves a benchmark code across the paper's ten kernels and
// the extended set.
func benchByCode(code string) (bench.Spec, error) {
	if spec, err := bench.ByCode(code); err == nil {
		return spec, nil
	}
	for _, spec := range bench.Extended() {
		if spec.Code == code {
			return spec, nil
		}
	}
	return bench.Spec{}, fmt.Errorf("program: unknown benchmark %q", code)
}

// ConfigSpec is the platform-knob subset a request may override; nil
// fields keep the paper's DefaultConfig values. MID and PartitionWays are
// alternatives (the platform rejects both at once), and Hierarchy is
// mutually exclusive with the flat L1*/LLC* geometry knobs it replaces.
type ConfigSpec struct {
	Cores         *int   `json:"cores,omitempty"`
	MID           *int64 `json:"mid,omitempty"`
	PartitionWays []int  `json:"partition_ways,omitempty"`
	L1SizeBytes   *int   `json:"l1_size_bytes,omitempty"`
	L1Ways        *int   `json:"l1_ways,omitempty"`
	LLCSizeBytes  *int   `json:"llc_size_bytes,omitempty"`
	LLCWays       *int   `json:"llc_ways,omitempty"`
	LineBytes     *int   `json:"line_bytes,omitempty"`
	WriteThrough  *bool  `json:"write_through,omitempty"`
	// Hierarchy replaces the default two-level layout with an explicit
	// level list (first level private per core, the rest shared, the last
	// one EFL-protected).
	Hierarchy []LevelSpecJSON `json:"hierarchy,omitempty"`
	// SharedDataBytes enables the MSI coherence layer over a shared-data
	// window of that many bytes (0 keeps data private per core).
	SharedDataBytes *int `json:"shared_data_bytes,omitempty"`
}

// LevelSpecJSON is one cache level of a request's hierarchy override.
type LevelSpecJSON struct {
	Name          string `json:"name"`
	SizeBytes     int    `json:"size_bytes"`
	Ways          int    `json:"ways"`
	Shared        bool   `json:"shared,omitempty"`
	LatencyCycles int64  `json:"latency_cycles"`
	// Policy is "tr" (time-randomised, the default) or "td"
	// (time-deterministic LRU).
	Policy string `json:"policy,omitempty"`
}

// level maps the JSON shape onto the simulator's level descriptor.
func (ls LevelSpecJSON) level() (cache.LevelSpec, error) {
	spec := cache.LevelSpec{
		Name:          ls.Name,
		SizeBytes:     ls.SizeBytes,
		Ways:          ls.Ways,
		Shared:        ls.Shared,
		LatencyCycles: ls.LatencyCycles,
	}
	switch ls.Policy {
	case "", "tr":
		spec.Policy = cache.TimeRandomised
	case "td":
		spec.Policy = cache.TimeDeterministic
	default:
		return spec, fmt.Errorf("hierarchy level %q: unknown policy %q (want tr or td)", ls.Name, ls.Policy)
	}
	return spec, nil
}

// resolve applies the overrides to DefaultConfig and validates the result.
func (cs ConfigSpec) resolve() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	if cs.Cores != nil {
		cfg.Cores = *cs.Cores
	}
	if cs.MID != nil {
		cfg.MID = *cs.MID
	}
	if cs.PartitionWays != nil {
		cfg.PartitionWays = append([]int(nil), cs.PartitionWays...)
	}
	if cs.L1SizeBytes != nil {
		cfg.L1SizeBytes = *cs.L1SizeBytes
	}
	if cs.L1Ways != nil {
		cfg.L1Ways = *cs.L1Ways
	}
	if cs.LLCSizeBytes != nil {
		cfg.LLCSizeBytes = *cs.LLCSizeBytes
	}
	if cs.LLCWays != nil {
		cfg.LLCWays = *cs.LLCWays
	}
	if cs.LineBytes != nil {
		cfg.LineBytes = *cs.LineBytes
	}
	if cs.WriteThrough != nil {
		cfg.DL1WriteThrough = *cs.WriteThrough
	}
	if len(cs.Hierarchy) > 0 {
		if cs.L1SizeBytes != nil || cs.L1Ways != nil || cs.LLCSizeBytes != nil || cs.LLCWays != nil {
			return sim.Config{}, fmt.Errorf("config: hierarchy and the flat l1_*/llc_* geometry knobs are mutually exclusive")
		}
		cfg.Hierarchy = make([]cache.LevelSpec, len(cs.Hierarchy))
		for i, ls := range cs.Hierarchy {
			lv, err := ls.level()
			if err != nil {
				return sim.Config{}, fmt.Errorf("config: %w", err)
			}
			cfg.Hierarchy[i] = lv
		}
	}
	if cs.SharedDataBytes != nil {
		cfg.SharedDataBytes = *cs.SharedDataBytes
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}

// normalizeProbabilities validates, sorts and deduplicates an exceedance
// probability list (default: the paper's 1e-15 headline cutoff).
func normalizeProbabilities(ps []float64) ([]float64, error) {
	if len(ps) == 0 {
		return []float64{1e-15}, nil
	}
	if len(ps) > 32 {
		return nil, fmt.Errorf("probabilities: at most 32 per request")
	}
	out := append([]float64(nil), ps...)
	for _, p := range out {
		if !(p > 0 && p < 1) { // rejects NaN
			return nil, fmt.Errorf("probabilities: %v outside (0,1)", p)
		}
	}
	sort.Float64s(out)
	dedup := out[:1]
	for _, p := range out[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup, nil
}

// probKey renders a probability as the canonical JSON map key
// (shortest-round-trip float formatting, matching encoding/json).
func probKey(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// cacheKey derives the content-addressed cache key: SHA-256 over the
// canonical JSON of the resolved identity. encoding/json emits struct
// fields in declaration order and sorts map keys, so the rendering is
// deterministic.
func cacheKey(kind string, identity any) string {
	raw, err := json.Marshal(struct {
		Schema   int    `json:"schema"`
		Kind     string `json:"kind"`
		Identity any    `json:"identity"`
	}{Schema: 1, Kind: kind, Identity: identity})
	if err != nil {
		// Identity values are plain structs of scalars; a marshal failure
		// is a programming error, not a request error.
		panic("service: cache key marshal: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// EstimateRequest is the POST /v1/estimate body: run the full MBPTA
// protocol (analysis-mode campaign, i.i.d. gate, Gumbel block-maxima fit)
// for the program on the configured platform.
type EstimateRequest struct {
	Program ProgramSpec `json:"program"`
	Config  ConfigSpec  `json:"config"`
	// Runs is the measurement-run count (default 300, bounded by the
	// server's MaxRuns).
	Runs int `json:"runs,omitempty"`
	// Seed determines every random draw (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Probabilities are the exceedance probabilities to report pWCET
	// bounds at (default [1e-15]).
	Probabilities []float64 `json:"probabilities,omitempty"`
	// SkipIID disables the i.i.d. gate (ablations only).
	SkipIID bool `json:"skip_iid,omitempty"`
	// Converge stops the campaign as soon as the streaming pWCET estimate
	// at the smallest requested probability stabilises; Runs becomes the
	// ceiling instead of the exact count. Converged campaigns seed each
	// run from its index (a different — and smaller — sample than the
	// fixed-count protocol collects).
	Converge bool `json:"converge,omitempty"`
	// Audit attaches a per-request soundness audit block (DESIGN.md §9
	// invariants checked on every run of this campaign).
	Audit bool `json:"audit,omitempty"`
	// TimeoutMS bounds this request's execution (0: server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EstimateResponse is the estimate result. The shape is canonical: the
// same resolved request always yields byte-identical JSON, which is what
// makes cached and fresh responses comparable.
type EstimateResponse struct {
	Program     string             `json:"program"`
	ProgramSHA  string             `json:"program_sha256"`
	Runs        int                `json:"runs"`
	Seed        uint64             `json:"seed"`
	MaxObserved float64            `json:"max_observed"`
	IID         *IIDSummary        `json:"iid,omitempty"`
	PWCET       map[string]float64 `json:"pwcet"`
	Audit       json.RawMessage    `json:"audit,omitempty"`
}

// IIDSummary reports the MBPTA compliance gate.
type IIDSummary struct {
	WWAbsZ   float64 `json:"ww_abs_z"`
	KSPValue float64 `json:"ks_p_value"`
	Passed   bool    `json:"passed"`
}

// ScheduleRequest is the POST /v1/schedule body: pack the tasks first-fit
// -decreasing into minor frames and report per-slot feasibility.
type ScheduleRequest struct {
	Config    ConfigSpec `json:"config"`
	MIFCycles int64      `json:"mif_cycles"`
	Tasks     []TaskSpec `json:"tasks"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// TaskSpec is one admission-controlled task: its name and pWCET bound (in
// cycles, at the system's exceedance probability).
type TaskSpec struct {
	Name  string  `json:"name"`
	PWCET float64 `json:"pwcet"`
}

// ScheduleResponse reports the packed schedule and its feasibility check.
type ScheduleResponse struct {
	Feasible bool            `json:"feasible"`
	Frames   [][]SlotJSON    `json:"frames"`
	Slots    []SlotCheckJSON `json:"slots"`
}

// SlotJSON is one occupied slot in the packed schedule.
type SlotJSON struct {
	Core int    `json:"core"`
	Task string `json:"task"`
}

// SlotCheckJSON is one slot's budget check.
type SlotCheckJSON struct {
	Frame  int     `json:"frame"`
	Core   int     `json:"core"`
	Task   string  `json:"task"`
	PWCET  float64 `json:"pwcet"`
	Budget int64   `json:"budget"`
	Fits   bool    `json:"fits"`
	Slack  float64 `json:"slack"`
}

// validate checks the schedule request's own fields (the platform config
// is validated by resolve, the packing constraints by sched.PackGreedy).
func (sr *ScheduleRequest) validate() error {
	if len(sr.Tasks) == 0 {
		return fmt.Errorf("tasks: at least one task required")
	}
	if len(sr.Tasks) > 1024 {
		return fmt.Errorf("tasks: at most 1024 per request")
	}
	seen := map[string]bool{}
	for i, t := range sr.Tasks {
		if t.Name == "" {
			return fmt.Errorf("tasks[%d]: name required", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("tasks[%d]: duplicate name %q", i, t.Name)
		}
		seen[t.Name] = true
		if !(t.PWCET > 0) || math.IsInf(t.PWCET, 0) {
			return fmt.Errorf("tasks[%d] (%s): pwcet %v must be a positive finite number", i, t.Name, t.PWCET)
		}
	}
	return nil
}

// StaticRequest is the POST /v1/static body: the analytical (SPTA) route
// — per-access miss probabilities from reuse distances plus a Chernoff
// tail bound — used as a cross-check of the measurement-based estimate.
type StaticRequest struct {
	Program ProgramSpec `json:"program"`
	Model   ModelSpec   `json:"model"`
	Trace   TraceSpec   `json:"trace"`
	// EvictionsPerCycle adds EFL-style bounded co-runner interference.
	EvictionsPerCycle float64 `json:"evictions_per_cycle,omitempty"`
	// MeanGapCycles is the per-access re-reference spacing the
	// interference acts over; required positive and finite when
	// EvictionsPerCycle > 0.
	MeanGapCycles float64 `json:"mean_gap_cycles,omitempty"`
	// Conservative selects the sound DATE'13 pressure model (recommended
	// for WCET arguments).
	Conservative  bool      `json:"conservative,omitempty"`
	Probabilities []float64 `json:"probabilities,omitempty"`
	TimeoutMS     int64     `json:"timeout_ms,omitempty"`
}

// ModelSpec parameterises the statically analysed cache.
type ModelSpec struct {
	Sets        int     `json:"sets"`
	Ways        int     `json:"ways"`
	HitLatency  float64 `json:"hit_latency"`
	MissLatency float64 `json:"miss_latency"`
}

// TraceSpec selects which accesses enter the static analysis.
type TraceSpec struct {
	LineBytes   int    `json:"line_bytes,omitempty"`
	Instruction bool   `json:"instruction,omitempty"`
	Data        bool   `json:"data,omitempty"`
	MaxSteps    uint64 `json:"max_steps,omitempty"`
}

// StaticResponse is the static analysis result.
type StaticResponse struct {
	Program    string             `json:"program"`
	ProgramSHA string             `json:"program_sha256"`
	Accesses   int                `json:"accesses"`
	ColdMisses int                `json:"cold_misses"`
	Mean       float64            `json:"mean"`
	Var        float64            `json:"var"`
	PWCET      map[string]float64 `json:"pwcet"`
}

// validate checks the static request's interference fields up front (the
// facade re-validates; failing here turns a would-be campaign slot into a
// plain 400).
func (sr *StaticRequest) validate() error {
	if sr.EvictionsPerCycle < 0 || math.IsNaN(sr.EvictionsPerCycle) || math.IsInf(sr.EvictionsPerCycle, 0) {
		return fmt.Errorf("evictions_per_cycle: %v is not a finite non-negative number", sr.EvictionsPerCycle)
	}
	if sr.EvictionsPerCycle > 0 {
		if !(sr.MeanGapCycles > 0) || math.IsInf(sr.MeanGapCycles, 0) {
			return fmt.Errorf("mean_gap_cycles: %v must be a positive finite number when evictions_per_cycle > 0", sr.MeanGapCycles)
		}
	}
	if !sr.Trace.Instruction && !sr.Trace.Data {
		return fmt.Errorf("trace: select instruction and/or data accesses")
	}
	return nil
}

// errorResponse is the JSON error body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
