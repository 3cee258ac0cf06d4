package main

// deploy-mix: a single goroutine drives sim.Pool.Get and
// Multicore.RunInto, the path the fig4 and coherence campaigns take:
// seeded 4-kernel mixes under EFL and CP, some on the 3-level hierarchy,
// and the SC/FS shared-data kernels on the coherent platform. It
// exercises the interpreter, bus lottery, memory controller, EFL gating
// and MSI coherence, and never touches replay or the service.

import (
	"fmt"
	"time"

	"efl/internal/bench"
	"efl/internal/isa"
	"efl/internal/sim"
)

type deploy struct {
	e     *env
	refs  *refTable
	pool  *sim.Pool
	progs map[string][]*isa.Program // per shape ID: one program per core
	cfgs  map[string]sim.Config
	seq   []deployRun
	instr float64
}

// deployPasses is the sequence length in passes over the 60 shapes.
const deployPasses = 2

// timing: one round per 3 s of budget, at least 2, sharing setupReps
// set-ups. A round takes 3–5 s on the reference host. Rounds beyond ten
// still lower the spread when the host is busy: on one busy stretch,
// best of 5 rounds read p50 23.0–25.7 ms, best of 10 19.9–21.0, best of
// 15 19.9–20.2.
func (d *deploy) timing(seconds int) (int, bool) { return max(2, seconds/3), false }

// shapeConfig is the platform a shape runs on.
func shapeConfig(s deployShape) sim.Config {
	cfg := sim.DefaultConfig()
	switch s.Kind {
	case "cp":
		return cfg.WithPartition([]int{2, 2, 2, 2})
	case "efl":
		return cfg.WithEFL(s.MID)
	}
	cfg = cfg.WithEFL(s.MID)
	cfg.Hierarchy = threeLevelSpecs()
	if s.Kind == "coherent" {
		spec, _ := bench.SharedByCode(s.Shared)
		cfg.SharedDataBytes = spec.SharedBytes
	}
	return cfg
}

// shapePrograms builds one program per core for s.
func shapePrograms(s deployShape) ([]*isa.Program, error) {
	progs := make([]*isa.Program, 4)
	if s.Kind == "coherent" {
		spec, err := bench.SharedByCode(s.Shared)
		if err != nil {
			return nil, err
		}
		for i := range progs {
			progs[i] = spec.Build(i)
		}
		return progs, nil
	}
	for i, code := range s.Codes {
		spec, err := bench.ByCode(code)
		if err != nil {
			return nil, err
		}
		progs[i] = spec.Build()
	}
	return progs, nil
}

// setup builds every shape's programs, constructs one pooled platform per
// distinct configuration and runs it once at warmupSeed.
func (d *deploy) setup() error {
	var res sim.Result
	built := map[string]bool{}
	d.pool = sim.NewPool()
	d.progs = map[string][]*isa.Program{}
	d.cfgs = map[string]sim.Config{}
	for _, s := range deployShapes() {
		progs, err := shapePrograms(s)
		if err != nil {
			return err
		}
		d.progs[s.ID], d.cfgs[s.ID] = progs, shapeConfig(s)
		if built[configKey(d.cfgs[s.ID])] {
			continue
		}
		built[configKey(d.cfgs[s.ID])] = true
		if err := d.runOne(deployRun{Shape: s, Seed: warmupSeed, ID: "warmup/" + s.ID}, &res); err != nil {
			return err
		}
	}
	if d.e.smoke {
		d.seq = deploySequence(d.e.seed, 1)[:6]
	} else {
		d.seq = deploySequence(d.e.seed, deployPasses)
	}
	return nil
}

func (d *deploy) close() {}

// configKey identifies a platform configuration (the pool keys the same
// way).
func configKey(cfg sim.Config) string { return fmt.Sprintf("%+v", cfg) }

// runOne performs one deployment run.
func (d *deploy) runOne(r deployRun, res *sim.Result) error {
	m, err := d.pool.Get(d.cfgs[r.Shape.ID], d.progs[r.Shape.ID], r.Seed)
	if err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	if err := m.RunInto(res); err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	return nil
}

func (d *deploy) verify(r deployRun, res *sim.Result) (string, error) {
	got := deployDigest(res)
	e, ok := d.refs.Entries[r.ID]
	if !ok {
		return got, fmt.Errorf("%s: no reference entry", r.ID)
	}
	if got != e.SHA256 {
		return got, fmt.Errorf("%s: per-core (cycles, instructions) digest %s, reference %s", r.ID, got[:16], e.SHA256[:16])
	}
	return got, nil
}

func (d *deploy) pass(t *tally, dg *runDigest) error {
	d.instr = 0
	var res sim.Result
	for _, r := range d.seq {
		t0 := time.Now()
		err := d.runOne(r, &res)
		dt := time.Since(t0)
		if err != nil {
			t.fail(err)
			continue
		}
		sum, err := d.verify(r, &res)
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok(dt)
		dg.add(r.ID, sum)
		for _, c := range res.PerCore {
			d.instr += float64(c.Instrs)
		}
	}
	return nil
}

func (d *deploy) simInstr() float64 { return d.instr }

// tracedPass repeats the sequence with spans request → sim.pool_get
// (Pool.Get rewinding the pooled platform) → sim.deploy_run.<kind>.
func (d *deploy) tracedPass(tr *tracer, t *tally) (map[string]metric, error) {
	var res sim.Result
	var instr float64
	var runTime time.Duration
	for i, r := range d.seq {
		root := tr.begin("request", i, -1)
		sg := tr.begin("sim.pool_get", i, root)
		m, err := d.pool.Get(d.cfgs[r.Shape.ID], d.progs[r.Shape.ID], r.Seed)
		tr.end(sg, 1)
		if err != nil {
			tr.end(root, 1)
			t.fail(fmt.Errorf("%s: %w", r.ID, err))
			continue
		}
		sr := tr.begin("sim.deploy_run."+r.Shape.Kind, i, root)
		err = m.RunInto(&res)
		tr.end(sr, 1)
		tr.end(root, 1)
		if err != nil {
			t.fail(fmt.Errorf("%s: %w", r.ID, err))
			continue
		}
		if _, err := d.verify(r, &res); err != nil {
			t.fail(err)
			continue
		}
		t.ok(tr.spans[root].dur())
		runTime += tr.spans[sr].dur()
		for _, c := range res.PerCore {
			instr += float64(c.Instrs)
		}
	}
	out := map[string]metric{"sim.deploy_ns_per_instr": {float64(runTime) / instr, "ns"}}
	for _, k := range []string{"efl", "cp", "multilevel", "coherent"} {
		out["sim.deploy_run_ms."+k] = metric{median(tr.perUnit("sim.deploy_run."+k, time.Millisecond)), "ms"}
	}
	return out, nil
}

func (d *deploy) suite() []namedProg {
	var progs []namedProg
	for _, s := range bench.AllWithExtended() {
		progs = append(progs, namedProg{s.Code, s.Build()})
	}
	return progs
}
