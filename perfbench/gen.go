package main

// Seeded input generation. Every workload draws its operations from a
// fixed pool of candidates whose expected outputs are recorded in refs/
// (see oracle.go); --seed chooses which candidates a run uses and in
// which order. The composition of a run (how many operations of each
// program and request kind) depends only on its size, never on the
// seed, so runs with different seeds do the same amount of work of the
// same kinds and their figures are comparable.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/service"
	"efl/internal/workload"
)

// Pool sizes: how many candidate request seeds the reference tables hold
// per operation shape. A run never uses one candidate twice, so a shape
// may occur at most this often in one run.
const (
	coldCandidates   = 6
	warmCandidates   = 16
	deployCandidates = 12
)

// Seeds of the candidates: candidate r of any shape uses seedBase+r. The
// estimate-cold warm-up requests use warmupSeed, outside every pool.
const (
	seedBase   = 100
	warmupSeed = 99
)

// rnd is the benchmark's own splitmix64 stream, keyed by (seed, label):
// inputs never depend on the program's random number generators.
type rnd struct{ s uint64 }

func newRnd(seed uint64, label string) *rnd {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rnd{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rnd) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rnd) intn(n int) int { return int(r.next() % uint64(n)) }

func shuffle[T any](r *rnd, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// kernelCodes lists the 16 kernels: the paper's ten, then the extended six.
func kernelCodes() []string {
	var codes []string
	for _, s := range bench.AllWithExtended() {
		codes = append(codes, s.Code)
	}
	return codes
}

// traceSpecs are the two synthetic traces uploaded during set-up: a
// hot-set trace whose working set fits the LLC and a streaming one that
// walks past it. They are sized so the replayed program stays within the
// instruction encoder's 8191 static instructions.
var traceSpecs = []workload.GenSpec{
	{Name: "hot-set", Seed: 11, Records: 1500, FootprintBytes: 256 << 10,
		Locality: 0.9, HotBytes: 8 << 10, StoreFrac: 0.2, MeanGap: 6},
	{Name: "streaming", Seed: 12, Records: 1500, FootprintBytes: 1 << 20,
		Locality: 0.05, StrideBytes: 16, StoreFrac: 0.1, MeanGap: 4},
}

// traceSet is the generated trace bytes and their content hashes.
type traceSet struct {
	data   [][]byte
	hashes []string
}

func generateTraces() (traceSet, error) {
	var ts traceSet
	for _, g := range traceSpecs {
		b, err := g.Generate()
		if err != nil {
			return ts, fmt.Errorf("generate trace %s: %w", g.Name, err)
		}
		sum := sha256.Sum256(b)
		ts.data = append(ts.data, b)
		ts.hashes = append(ts.hashes, hex.EncodeToString(sum[:]))
	}
	return ts, nil
}

// threeLevel is the 3-level hierarchy override requests and deployment
// runs use: private L1s, a shared L2 and the EFL-protected LLC (the
// platform of the coherence campaign).
var threeLevel = []service.LevelSpecJSON{
	{Name: "L1", SizeBytes: 4 << 10, Ways: 4, LatencyCycles: 1},
	{Name: "L2", SizeBytes: 16 << 10, Ways: 4, Shared: true, LatencyCycles: 6},
	{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, Shared: true, LatencyCycles: 10},
}

func threeLevelSpecs() []cache.LevelSpec {
	out := make([]cache.LevelSpec, len(threeLevel))
	for i, l := range threeLevel {
		out[i] = cache.LevelSpec{Name: l.Name, SizeBytes: l.SizeBytes, Ways: l.Ways,
			Shared: l.Shared, LatencyCycles: l.LatencyCycles, Policy: cache.TimeRandomised}
	}
	return out
}

// progRef names the program of an estimate request: a kernel code, one
// of the uploaded traces, or one of the generated assembler sources.
type progRef struct {
	Code   string
	Trace  int // index into traceSpecs when Code == ""
	Source int // 1-based index into sourceParams; 0 for none
}

func (p progRef) label() string {
	switch {
	case p.Source > 0:
		return fmt.Sprintf("src%d", p.Source)
	case p.Code != "":
		return p.Code
	default:
		return "trace-" + traceSpecs[p.Trace].Name
	}
}

// sourceParams shape the inline assembler programs of estimate-warm:
// a strided read-modify-write walk over an array of the given size.
var sourceParams = []struct{ bytes, stride, passes int }{
	{2 << 10, 8, 12}, {8 << 10, 16, 6}, {16 << 10, 32, 8},
	{32 << 10, 16, 2}, {4 << 10, 64, 30}, {96 << 10, 128, 4},
}

// sourceText renders generated source i (1-based).
func sourceText(i int) string {
	p := sourceParams[i-1]
	var b strings.Builder
	fmt.Fprintf(&b, "; strided walk: %d bytes, stride %d, %d passes\n", p.bytes, p.stride, p.passes)
	fmt.Fprintf(&b, ".space %d\n", p.bytes)
	fmt.Fprintf(&b, "    movi r1, %d\nouter:\n", p.passes)
	fmt.Fprintf(&b, "    movi r2, %d\n    movi r3, %d\ninner:\n", 0x4000_0000, 0x4000_0000+p.bytes)
	b.WriteString("    ld r4, 0(r2)\n    addi r4, r4, 1\n    st r4, 0(r2)\n")
	fmt.Fprintf(&b, "    addi r2, r2, %d\n    blt r2, r3, inner\n", p.stride)
	b.WriteString("    addi r1, r1, -1\n    bne r1, r0, outer\n    halt\n")
	return b.String()
}

// estKind is the request kind of an estimate: fixed-count or converged,
// audited or not, default platform or the 3-level hierarchy.
type estKind struct {
	Name      string
	Converge  bool
	Audit     bool
	Hierarchy bool
}

var (
	kPlain     = estKind{Name: "fixed"}
	kConverge  = estKind{Name: "converge", Converge: true}
	kAudit     = estKind{Name: "audit", Audit: true}
	kConvAudit = estKind{Name: "converge-audit", Converge: true, Audit: true}
	kHier      = estKind{Name: "hierarchy", Hierarchy: true}
)

// coldPattern is one cycle of estimate-cold request kinds: 8 of 12
// fixed-count, a third converged, a quarter audited, one on the 3-level
// hierarchy.
var coldPattern = []estKind{kPlain, kConverge, kAudit, kPlain, kConverge, kPlain,
	kConvAudit, kPlain, kConverge, kAudit, kPlain, kHier}

// Request run counts: every fixed-count request collects fixedRuns runs,
// the service's minimum for a block-maxima fit (estimate-cold misses,
// warm-ups and every estimate-warm key). A converged request asks for
// convergeRuns, the service's convergence floor, so it consumes exactly
// that many runs through the batch engine and the stream whatever its
// seed: the work of an estimate-cold run does not depend on which
// candidates --seed draws. (Under a higher ceiling the stop point moves
// with the candidate, and two seeds' runs differed by 12% in simulated
// instructions.) The layer suite keeps a higher ceiling, streamCeiling,
// so sim.stream_useful_ratio still sees a real stop decision.
const (
	fixedRuns     = 40
	convergeRuns  = 100
	streamCeiling = 120
)

// estimate is one generated /v1/estimate request.
type estimate struct {
	ID   string // reference-table key: program/kind/candidate
	Prog progRef
	Kind estKind
	Body []byte
}

func newEstimate(p progRef, k estKind, runs int, seed uint64, ts traceSet, id string) estimate {
	req := service.EstimateRequest{Runs: runs, Seed: seed, Converge: k.Converge, Audit: k.Audit}
	switch {
	case p.Source > 0:
		req.Program = service.ProgramSpec{Source: sourceText(p.Source), Name: p.label()}
	case p.Code != "":
		req.Program = service.ProgramSpec{Benchmark: p.Code}
	default:
		req.Program = service.ProgramSpec{TraceHash: ts.hashes[p.Trace]}
	}
	if k.Hierarchy {
		req.Config.Hierarchy = threeLevel
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic("perfbench: marshal request: " + err.Error()) // plain struct of scalars
	}
	return estimate{ID: id, Prog: p, Kind: k, Body: body}
}

// coldPrograms are the 18 estimate-cold programs: 16 kernels, 2 traces.
func coldPrograms() []progRef {
	var ps []progRef
	for _, c := range kernelCodes() {
		ps = append(ps, progRef{Code: c})
	}
	for i := range traceSpecs {
		ps = append(ps, progRef{Trace: i})
	}
	return ps
}

func coldRunsFor(k estKind) int {
	if k.Converge {
		return convergeRuns
	}
	return fixedRuns
}

func coldID(p progRef, k estKind, r int) string {
	return fmt.Sprintf("%s/%s/r%d", p.label(), k.Name, r)
}

// coldSequence returns passes×36 requests: per pass every program twice,
// with kinds rotating through coldPattern so each pass keeps its mix.
// Each (program, kind) occurrence takes a distinct pool candidate, so
// every request misses the result cache.
func coldSequence(seed uint64, passes int, ts traceSet) []estimate {
	progs := coldPrograms()
	used := map[string]int{}
	var seq []estimate
	for pass := 0; pass < passes; pass++ {
		for a, p := range progs {
			for j := 0; j < 2; j++ {
				k := coldPattern[(2*a+j+2*pass)%len(coldPattern)]
				pair := p.label() + "/" + k.Name
				off := newRnd(seed, "cold/"+pair).intn(coldCandidates)
				r := (off + used[pair]) % coldCandidates
				used[pair]++
				seq = append(seq, newEstimate(p, k, coldRunsFor(k), seedBase+uint64(r), ts, coldID(p, k, r)))
			}
		}
	}
	shuffle(newRnd(seed, "cold/order"), seq)
	return seq
}

// coldWarmups returns one request per program at warmupSeed, rotating
// through fixed-count, converged and hierarchy kinds so every platform
// shape the sequence needs is built before timing starts.
func coldWarmups(ts traceSet) []estimate {
	kinds := []estKind{kPlain, kConverge, kHier}
	var out []estimate
	for a, p := range coldPrograms() {
		k := kinds[a%len(kinds)]
		out = append(out, newEstimate(p, k, fixedRuns, warmupSeed, ts, "warmup/"+p.label()))
	}
	return out
}

// coldPool enumerates every candidate a cold sequence can draw.
func coldPool(ts traceSet) []estimate {
	var out []estimate
	for _, p := range coldPrograms() {
		for _, k := range []estKind{kPlain, kConverge, kAudit, kConvAudit, kHier} {
			for r := 0; r < coldCandidates; r++ {
				out = append(out, newEstimate(p, k, coldRunsFor(k), seedBase+uint64(r), ts, coldID(p, k, r)))
			}
		}
	}
	return out
}

// warmSlot is one key of the estimate-warm set and the node its key
// should be homed on (node-0 is the client-facing node).
type warmSlot struct {
	Prog progRef
	Kind estKind
	Home string
}

// warmSlots is the 30-key set: 16 kernels, 2 traces, 6 inline sources and
// 6 kernels on the 3-level hierarchy. Two thirds are homed on node-0
// (local hits), one third on node-1 (forwarded hits), so the local and
// forwarded latency clusters keep their ranks: the median is a local
// hit and the 90th percentile a forwarded one on every seed.
func warmSlots() []warmSlot {
	var ps []warmSlot
	for _, c := range kernelCodes() {
		ps = append(ps, warmSlot{Prog: progRef{Code: c}, Kind: kPlain})
	}
	for i := range traceSpecs {
		ps = append(ps, warmSlot{Prog: progRef{Trace: i}, Kind: kPlain})
	}
	for i := range sourceParams {
		ps = append(ps, warmSlot{Prog: progRef{Source: i + 1}, Kind: kPlain})
	}
	for _, c := range []string{"CA", "MA", "PN", "II", "FF", "TL"} {
		ps = append(ps, warmSlot{Prog: progRef{Code: c}, Kind: kHier})
	}
	for i := range ps {
		ps[i].Home = "node-0"
		if i%3 == 2 {
			ps[i].Home = "node-1"
		}
	}
	return ps
}

func warmID(s warmSlot, r int) string {
	return fmt.Sprintf("%s/%s/r%d", s.Prog.label(), s.Kind.Name, r)
}

// warmPool enumerates every candidate key of every slot.
func warmPool(ts traceSet) []estimate {
	var out []estimate
	for _, s := range warmSlots() {
		for r := 0; r < warmCandidates; r++ {
			out = append(out, newEstimate(s.Prog, s.Kind, fixedRuns, seedBase+uint64(r), ts, warmID(s, r)))
		}
	}
	return out
}

// warmKeySet picks, per slot, a seeded candidate among those the
// reference table records as homed on the slot's node and answered with
// a 200. The service never caches a 422 (i.i.d. rejection), so a 422 key
// would re-run its campaign on every request of the timed phase.
func warmKeySet(seed uint64, ts traceSet, refs *refTable) ([]estimate, error) {
	var keys []estimate
	for _, s := range warmSlots() {
		var eligible []int
		for r := 0; r < warmCandidates; r++ {
			if e, ok := refs.Entries[warmID(s, r)]; ok && e.Home == s.Home && e.Status == http.StatusOK {
				eligible = append(eligible, r)
			}
		}
		if len(eligible) == 0 {
			return nil, fmt.Errorf("warm slot %s/%s: no reference candidate answered 200 and homed on %s", s.Prog.label(), s.Kind.Name, s.Home)
		}
		r := eligible[newRnd(seed, "warm/"+s.Prog.label()+"/"+s.Kind.Name).intn(len(eligible))]
		keys = append(keys, newEstimate(s.Prog, s.Kind, fixedRuns, seedBase+uint64(r), ts, warmID(s, r)))
	}
	return keys, nil
}

// warmSequence returns reps shuffled rounds over the key set (indices).
func warmSequence(seed uint64, reps, keys int) []int {
	r := newRnd(seed, "warm/order")
	seq := make([]int, 0, reps*keys)
	round := make([]int, keys)
	for i := range round {
		round[i] = i
	}
	for k := 0; k < reps; k++ {
		shuffle(r, round)
		seq = append(seq, round...)
	}
	return seq
}

// deployShape is one deployment-run configuration of deploy-mix.
type deployShape struct {
	ID     string
	Kind   string // efl, cp, multilevel or coherent
	Codes  []string
	Shared string // SC or FS for coherent shapes
	MID    int64
}

var deployMIDs = []int64{250, 500, 1000}

// deployMixes draws 24 4-kernel mixes from a fixed generator seed: six
// shuffles of the 16 kernels cut into fours, so every kernel appears in
// exactly six mixes.
func deployMixes() [][]string {
	r := newRnd(2014, "deploy/mixes")
	var mixes [][]string
	for s := 0; s < 6; s++ {
		codes := kernelCodes()
		shuffle(r, codes)
		for i := 0; i < len(codes); i += 4 {
			mixes = append(mixes, append([]string(nil), codes[i:i+4]...))
		}
	}
	return mixes
}

// deployShapes is one pass of deploy-mix: every mix under EFL at a drawn
// MID and under CP with an even way split, a quarter of the mixes again
// under EFL on the 3-level hierarchy, and three coherent runs each of the
// SC and FS shared-data kernels.
func deployShapes() []deployShape {
	r := newRnd(2014, "deploy/mids")
	var out []deployShape
	mixes := deployMixes()
	for i, m := range mixes {
		mid := deployMIDs[r.intn(len(deployMIDs))]
		j := strings.Join(m, ",")
		out = append(out,
			deployShape{ID: fmt.Sprintf("efl%d:%s", mid, j), Kind: "efl", Codes: m, MID: mid},
			deployShape{ID: "cp:" + j, Kind: "cp", Codes: m})
		if i%4 == 0 {
			out = append(out, deployShape{ID: fmt.Sprintf("multilevel%d:%s", mid, j), Kind: "multilevel", Codes: m, MID: mid})
		}
	}
	for i := 0; i < 3; i++ {
		for _, code := range []string{"SC", "FS"} {
			mid := deployMIDs[i]
			out = append(out, deployShape{ID: fmt.Sprintf("coherent%d:%s", mid, code), Kind: "coherent", Shared: code, MID: mid})
		}
	}
	return out
}

// deployRun is one generated deployment run: a shape and its seed.
type deployRun struct {
	Shape deployShape
	Seed  uint64
	ID    string
}

func deployID(s deployShape, r int) string { return fmt.Sprintf("%s/r%d", s.ID, r) }

// deploySequence returns passes×len(deployShapes()) runs in seeded order;
// each occurrence of a shape takes a distinct pool candidate.
func deploySequence(seed uint64, passes int) []deployRun {
	shapes := deployShapes()
	var seq []deployRun
	for _, s := range shapes {
		off := newRnd(seed, "deploy/"+s.ID).intn(deployCandidates)
		for p := 0; p < passes; p++ {
			r := (off + p) % deployCandidates
			seq = append(seq, deployRun{Shape: s, Seed: seedBase + uint64(r), ID: deployID(s, r)})
		}
	}
	shuffle(newRnd(seed, "deploy/order"), seq)
	return seq
}

// deployPool enumerates every candidate run.
func deployPool() []deployRun {
	var out []deployRun
	for _, s := range deployShapes() {
		for r := 0; r < deployCandidates; r++ {
			out = append(out, deployRun{Shape: s, Seed: seedBase + uint64(r), ID: deployID(s, r)})
		}
	}
	return out
}
