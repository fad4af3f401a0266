package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"desc/internal/exp"
	"desc/internal/runcache"
)

// digestSeeds is how many simulation seeds have recorded table digests:
// --seed n selects simulation seed 1 + n mod digestSeeds, so every seed
// the benchmark is given has a recorded answer to check against.
const digestSeeds = 8

// simSeed maps a workload seed to the experiments' simulation seed.
func simSeed(seed int64) int64 {
	return 1 + ((seed%digestSeeds)+digestSeeds)%digestSeeds
}

// sweepOptions are the experiment options of the quick descbench sweep
// at the given workload seed.
func sweepOptions(seed int64) exp.Options {
	return exp.Options{Quick: true, Seed: simSeed(seed)}.WithDefaults()
}

//go:embed digests.json
var digestsJSON []byte

// digestFile is digests.json: per simulation seed, the SHA-256 of every
// experiment's rendered markdown tables. An intentional model change
// regenerates it with --record-digests in its own commit.
type digestFile struct {
	InstrPerContext uint64                       `json:"instr_per_context"`
	Seeds           map[string]map[string]string `json:"seeds"`
}

// expectedDigests returns the recorded digests for opt.
func expectedDigests(opt exp.Options) (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := f.Seeds[strconv.FormatInt(opt.Seed, 10)]
	if !ok || f.InstrPerContext != opt.InstrPerContext {
		return nil, fmt.Errorf("digests.json has no digests for seed %d at %d instructions", opt.Seed, opt.InstrPerContext)
	}
	return d, nil
}

// sweepPlan is every experiment's demand list for opt, concatenated in
// experiment order: the plan descbench executes before rendering.
func sweepPlan(opt exp.Options, exps []exp.Experiment) []exp.Demand {
	var plan []exp.Demand
	for _, e := range exps {
		if e.Demands != nil {
			plan = append(plan, e.Demands(opt)...)
		}
	}
	return plan
}

// renderAll renders every experiment from r and returns each one's
// table digest. times, when non-nil, receives each experiment's render
// duration.
func renderAll(ctx context.Context, r *exp.Runner, exps []exp.Experiment, times map[string]time.Duration) (map[string]string, error) {
	out := make(map[string]string, len(exps))
	for _, e := range exps {
		start := time.Now()
		tables, err := r.Run(ctx, e)
		if times != nil {
			times[e.ID] = time.Since(start)
		}
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", e.ID, err)
		}
		h := sha256.New()
		for _, t := range tables {
			h.Write([]byte(t.Markdown()))
			h.Write([]byte{0})
		}
		out[e.ID] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// mismatches counts the experiments whose digest differs from want.
func mismatches(cfg *config, got, want map[string]string) int {
	bad := 0
	for id, g := range got {
		if want[id] != g {
			bad++
			cfg.logf("output check: %s renders digest %s, want %s", id, g, want[id])
		}
	}
	return bad
}

// simTimer is the benchmark's exp.Observer: it records each
// simulation's host time and counts failures.
type simTimer struct {
	mu     sync.Mutex
	start  map[exp.Demand]time.Time
	ms     []float64
	failed int
}

func newSimTimer() *simTimer { return &simTimer{start: map[exp.Demand]time.Time{}} }

func (t *simTimer) ExecutePlanned(int) {}

func (t *simTimer) RunStarted(d exp.Demand) {
	t.mu.Lock()
	t.start[d] = time.Now()
	t.mu.Unlock()
}

func (t *simTimer) RunDone(d exp.Demand, err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failed++
		return
	}
	t.ms = append(t.ms, float64(now.Sub(t.start[d]).Nanoseconds())/1e6)
}

// sweep is one descbench-style sweep: a fresh Runner over the cache in
// dir executes the whole plan and renders every experiment.
type sweep struct {
	digests map[string]string
	wall    time.Duration
	simMS   []float64 // host time of each simulation the sweep ran
	failed  int       // simulations that failed
	runner  *exp.Runner
	store   *runcache.Store
}

func runSweep(ctx context.Context, cfg *config, st sweepSetup, exps []exp.Experiment, dir string, extra ...exp.RunnerOption) (sweep, error) {
	start := time.Now()
	store, err := runcache.Open(dir, nil)
	if err != nil {
		return sweep{}, err
	}
	timer := newSimTimer()
	opts := append([]exp.RunnerOption{exp.Jobs(cfg.jobs), exp.DiskCache(store), exp.WithObserver(timer)}, extra...)
	r, err := exp.NewRunner(st.opt, opts...)
	if err != nil {
		return sweep{}, err
	}
	if err := r.Execute(ctx, st.plan); err != nil {
		return sweep{}, err
	}
	digests, err := renderAll(ctx, r, exps, nil)
	if err != nil {
		return sweep{}, err
	}
	return sweep{digests: digests, wall: time.Since(start), simMS: timer.ms, failed: timer.failed, runner: r, store: store}, nil
}

// sweepSetup is the shared set-up of both sweep workloads.
type sweepSetup struct {
	opt  exp.Options
	exps []exp.Experiment
	plan []exp.Demand
	want map[string]string
}

func newSweepSetup(seed int64) (sweepSetup, error) {
	opt := sweepOptions(seed)
	exps := exp.All()
	want, err := expectedDigests(opt)
	if err != nil {
		return sweepSetup{}, err
	}
	return sweepSetup{opt: opt, exps: exps, plan: sweepPlan(opt, exps), want: want}, nil
}

// runSweepCold times the descbench user's wait: a fresh Runner with an
// empty disk cache executes the quick plan and renders every experiment,
// at least once and until the measured time is up. One sweep outlasts
// the usual measured time; a second would not narrow the run-to-run
// spread, which machine-level noise sets.
//
// Set-up plans the sweep and warms the process with one simulation in a
// throwaway Runner, so heap growth and first-touch page faults are not
// charged to the first measured simulation.
func runSweepCold(cfg *config) (*result, error) {
	ctx := context.Background()
	st, setupS, err := timeSetup(setupReps, func() (sweepSetup, error) {
		st, err := newSweepSetup(cfg.seed)
		if err != nil {
			return st, err
		}
		r, err := exp.NewRunner(st.opt, exp.Jobs(1))
		if err != nil {
			return st, err
		}
		return st, r.Execute(ctx, st.plan[:1])
	})
	if err != nil {
		return nil, err
	}

	res := &result{}
	mem := startMemPhase()
	var walls, simMS []float64
	sims := 0
	measureStart := time.Now()
	for i := 0; i == 0 || time.Since(measureStart) < cfg.seconds; i++ {
		sw, err := runSweep(ctx, cfg, st, st.exps, filepath.Join(cfg.scratch, fmt.Sprintf("cold-%d", i)))
		if err != nil {
			return nil, err
		}
		walls = append(walls, sw.wall.Seconds())
		simMS = append(simMS, sw.simMS...)
		sims += len(sw.simMS)
		res.Attempted += len(sw.simMS) + sw.failed + len(st.exps)
		res.Failed += sw.failed + mismatches(cfg, sw.digests, st.want)
	}
	rss, allocMB := mem.end()

	sweepS := quantile(walls, 0.5)
	cfg.logf("sweep-cold: %d sweeps, sweep_s p50=%.4g s, %d simulations per sweep", len(walls), sweepS, sims/len(walls))
	p50, p90 := latencyReport(cfg, "sim_ms", simMS, 0.9, "ms")
	res.Metrics = endToEnd(setupS, float64(sims/len(walls))/sweepS, p50, p90, rss, allocMB/float64(sims))
	return res, nil
}

// recordDigests runs the cold sweep at every digest seed and writes the
// rendered-table digests to path.
func recordDigests(cfg *config, path string) error {
	ctx := context.Background()
	f := digestFile{Seeds: map[string]map[string]string{}}
	exps := exp.All()
	for s := int64(0); s < digestSeeds; s++ {
		opt := sweepOptions(s)
		f.InstrPerContext = opt.InstrPerContext
		st := sweepSetup{opt: opt, exps: exps, plan: sweepPlan(opt, exps)}
		sw, err := runSweep(ctx, cfg, st, exps, filepath.Join(cfg.scratch, fmt.Sprintf("record-%d", s)))
		if err != nil {
			return err
		}
		f.Seeds[strconv.FormatInt(opt.Seed, 10)] = sw.digests
		cfg.logf("recorded seed %d: %d experiments, %d simulations", opt.Seed, len(sw.digests), len(sw.simMS))
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return cfg.log.Flush()
}
