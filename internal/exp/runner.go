package exp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/energy"
	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/stats"
	"desc/internal/workload"
)

// Demand is one (configuration, benchmark) run in an experiment's demand
// plan.
type Demand struct {
	Spec  SystemSpec
	Bench string
}

// Observer receives run lifecycle events from a Runner. Implementations
// must be safe for concurrent use: the Runner invokes them from its
// worker goroutines. Observers feed progress reporting only — results
// never flow through them, so a noisy observer cannot perturb the
// deterministic output.
type Observer interface {
	// ExecutePlanned reports how many uncached, deduplicated runs an
	// Execute call is about to simulate.
	ExecutePlanned(total int)
	// RunStarted fires when a run begins simulating (cache hits and
	// singleflight joins do not fire it).
	RunStarted(d Demand)
	// RunDone fires when that simulation finishes or fails.
	RunDone(d Demand, err error)
}

// call is one singleflight cache entry: the caller that claims a key
// computes; every other caller waits on done and reads res/err.
type call struct {
	done chan struct{}
	res  RunResult
	err  error
}

// Runner owns the run cache and the worker pool of the experiment
// pipeline. It replaces the former package-global memo map: every Runner
// has its own cache, so tests and library callers control reuse by
// controlling Runner lifetime.
//
// Results are deterministic regardless of worker count or completion
// order: each run is simulated on its own hierarchy, and the one thing
// runs share, a benchmark's block store, holds the same bytes for an
// address whichever run generated them; the cache is keyed by the full
// (spec, benchmark, seed, instructions) tuple, and table rendering
// happens in the callers' deterministic iteration order.
type Runner struct {
	opt  Options
	jobs int
	obs  Observer

	// disk, when non-nil, is the persistent content-addressed result
	// cache (internal/runcache): runs consult it before simulating
	// and writes back after, so repeated sweeps are incremental across
	// processes and machines.
	disk *runcache.Store

	// shardIndex/shardCount, when shardCount > 1, restrict Execute to a
	// deterministic 1/shardCount slice of the globally-ordered,
	// deduplicated demand plan (see Shard).
	shardIndex, shardCount int

	// reg, when non-nil, receives telemetry from every layer of the
	// runner's simulations (see internal/metrics). mx holds the runner's
	// own pre-resolved instruments; its fields are nil no-ops when reg
	// is nil.
	reg *metrics.Registry
	mx  runnerMetrics

	// sem bounds concurrently simulating runs to jobs slots.
	sem chan struct{}

	// onBlocks, when non-nil, sees every block store Execute creates
	// (a test hook).
	onBlocks func(*workload.Blocks)

	// plan, when non-nil, puts the Runner in recording mode (see
	// recordRuns): RunOne appends each distinct run to it and returns
	// placeholderResult instead of simulating.
	plan *[]Demand

	mu    sync.Mutex
	calls map[runKey]*call
}

// runnerMetrics counts the run cache's behavior: how much work the
// plan/execute pipeline actually saved.
type runnerMetrics struct {
	cacheJoins  *metrics.Counter // RunOne calls served by an existing entry
	dedupSkips  *metrics.Counter // Execute demands deduplicated before running
	shardSkips  *metrics.Counter // unique plan entries assigned to other shards
	diskHits    *metrics.Counter // runs served from the disk cache
	runsStarted *metrics.Counter
	runsDone    *metrics.Counter
	runsFailed  *metrics.Counter
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// Jobs bounds the worker pool to n concurrent simulations. Zero keeps
// the default, runtime.GOMAXPROCS(0); negative values make NewRunner
// fail — a sweep silently running unbounded because of a typo'd flag is
// exactly the kind of quiet misbehavior this repository rejects loudly.
func Jobs(n int) RunnerOption {
	return func(r *Runner) {
		if n != 0 {
			r.jobs = n
		}
	}
}

// WithMetrics installs a telemetry registry: the runner and every
// simulation layer below it (cpusim, cachesim, the per-scheme codecs)
// record activity into reg. Metrics are write-only observation and never
// perturb results (TestRunnerMetricsNonPerturbing).
func WithMetrics(reg *metrics.Registry) RunnerOption {
	return func(r *Runner) { r.reg = reg }
}

// WithObserver installs a progress observer.
func WithObserver(obs Observer) RunnerOption {
	return func(r *Runner) { r.obs = obs }
}

// DiskCache installs a persistent content-addressed result cache: every
// run's outcome is looked up on disk before simulating (keyed by the
// digest of the canonicalized spec, benchmark, seed, instruction budget,
// and CodeFingerprint — see diskcache.go) and written back atomically
// after. A nil store is a no-op, so callers can pass their flag value
// through unconditionally.
func DiskCache(store *runcache.Store) RunnerOption {
	return func(r *Runner) { r.disk = store }
}

// Shard restricts Execute to one deterministic slice of its plan: the
// demand list is deduplicated in order (the globally-ordered plan every
// shard derives identically from the same demands), and the runner
// executes only the unique entries whose plan position ≡ index mod
// count. N share-nothing processes given Shard(0..N-1, N) and the same
// demand list therefore cover the plan disjointly and exhaustively.
// count < 1 or index outside [0, count) makes NewRunner fail.
func Shard(index, count int) RunnerOption {
	return func(r *Runner) {
		r.shardIndex = index
		r.shardCount = count
	}
}

// NewRunner builds a Runner with an empty cache. opt is defaulted once
// here and shared by every run the Runner performs. A negative Jobs
// option is an error.
func NewRunner(opt Options, ropts ...RunnerOption) (*Runner, error) {
	r := &Runner{
		opt:   opt.WithDefaults(),
		calls: map[runKey]*call{},
	}
	for _, o := range ropts {
		o(r)
	}
	if r.jobs < 0 {
		return nil, fmt.Errorf("exp: jobs %d is negative; use 0 for the GOMAXPROCS default", r.jobs)
	}
	if r.jobs == 0 {
		r.jobs = runtime.GOMAXPROCS(0)
	}
	if r.jobs < 1 {
		r.jobs = 1
	}
	if r.shardCount == 0 && r.shardIndex == 0 {
		r.shardCount = 1 // unsharded
	}
	if r.shardCount < 1 || r.shardIndex < 0 || r.shardIndex >= r.shardCount {
		return nil, fmt.Errorf("exp: shard %d/%d is invalid; want index in [0,count) with count >= 1",
			r.shardIndex, r.shardCount)
	}
	r.mx = runnerMetrics{
		cacheJoins:  r.reg.Counter("exp/cache_joins"),
		dedupSkips:  r.reg.Counter("exp/dedup_skips"),
		shardSkips:  r.reg.Counter("exp/shard_skips"),
		diskHits:    r.reg.Counter("exp/disk_hits"),
		runsStarted: r.reg.Counter("exp/runs_started"),
		runsDone:    r.reg.Counter("exp/runs_done"),
		runsFailed:  r.reg.Counter("exp/runs_failed"),
	}
	r.reg.Gauge("exp/jobs").Set(int64(r.jobs))
	r.reg.Gauge("exp/shard_count").Set(int64(r.shardCount))
	r.reg.Gauge("exp/shard_index").Set(int64(r.shardIndex))
	r.sem = make(chan struct{}, r.jobs)
	return r, nil
}

// Options returns the (defaulted) options every run uses.
func (r *Runner) Options() Options { return r.opt }

// key builds the cache key for a spec/benchmark pair under r's options.
func (r *Runner) key(spec SystemSpec, bench string) runKey {
	return runKey{spec: spec, bench: bench, seed: r.opt.Seed, instr: r.opt.InstrPerContext}
}

// RunOne returns the simulation result for one (configuration,
// benchmark) pair, computing it at most once per Runner: concurrent
// calls for the same key join the in-flight computation (singleflight)
// instead of recomputing it. Failed runs are evicted so a later call can
// retry; cancellation via ctx returns ctx.Err() without waiting for the
// underlying simulation. A simulation RunOne starts reads blocks through
// a fresh store.
func (r *Runner) RunOne(ctx context.Context, spec SystemSpec, prof workload.Profile) (RunResult, error) {
	if r.plan != nil {
		if d := (Demand{Spec: spec, Bench: prof.Name}); !slices.Contains(*r.plan, d) {
			*r.plan = append(*r.plan, d)
		}
		return placeholderResult, nil
	}
	key := r.key(spec, prof.Name)
	c, owner := r.claim(key)
	if !owner {
		r.mx.cacheJoins.Inc()
		return c.wait(ctx)
	}
	if !r.diskHit(key, c) {
		r.simulateCall(ctx, key, c, spec, prof, workload.NewBlocks(prof, r.opt.Seed))
	}
	r.finish(key, c)
	return c.res, c.err
}

// claim returns key's cache entry, inserting an empty one when there is
// none; owner reports whether the caller inserted it and so must fill
// it and call finish.
func (r *Runner) claim(key runKey) (c *call, owner bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.calls[key]; ok {
		return c, false
	}
	c = &call{done: make(chan struct{})}
	r.calls[key] = c
	return c, true
}

// wait returns c's outcome once it is published, or ctx.Err() first if
// ctx is cancelled.
func (c *call) wait(ctx context.Context) (RunResult, error) {
	select {
	case <-c.done:
		return c.res, c.err
	case <-ctx.Done():
		return RunResult{}, ctx.Err()
	}
}

// finish publishes c's outcome. On error (including cancellation) the
// entry is evicted before done closes, so the cache never serves a
// failure.
func (r *Runner) finish(key runKey, c *call) {
	if c.err != nil {
		r.mu.Lock()
		delete(r.calls, key)
		r.mu.Unlock()
	}
	close(c.done)
}

// diskHit fills c from the disk cache and reports whether it could. The
// consult happens inside the singleflight (one reader per key) but
// outside the worker semaphore: a hit is a file read and must not queue
// behind in-flight simulations.
func (r *Runner) diskHit(key runKey, c *call) bool {
	if r.disk == nil {
		return false
	}
	res, ok := r.diskGet(key)
	if ok {
		r.mx.diskHits.Inc()
		c.res = res
	}
	return ok
}

// simulateCall simulates c's run inside a worker slot, reading blocks
// through blocks, and records the outcome on c (finish publishes it).
func (r *Runner) simulateCall(ctx context.Context, key runKey, c *call, spec SystemSpec, prof workload.Profile, blocks *workload.Blocks) {
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		c.err = ctx.Err()
		return
	}
	if c.err = ctx.Err(); c.err != nil {
		return
	}
	r.mx.runsStarted.Inc()
	d := Demand{Spec: spec, Bench: prof.Name}
	if r.obs != nil {
		r.obs.RunStarted(d)
	}
	c.res, c.err = simulate(ctx, spec, prof, r.opt, r.reg, blocks.Generator())
	if c.err != nil {
		r.mx.runsFailed.Inc()
	} else {
		r.mx.runsDone.Inc()
		if r.disk != nil {
			r.diskPut(key, c.res)
		}
	}
	if r.obs != nil {
		r.obs.RunDone(d, c.err)
	}
}

// Execute simulates every demanded run that is not already cached,
// deduplicating keys (experiments share baselines by construction, not
// by memo luck) and running the remainder on a pool of jobs workers. It
// returns the first error in demand order, or ctx.Err() when cancelled
// mid-sweep. Execute only warms the cache; the experiments' Run phases
// render tables from it afterwards.
//
// Under Shard(i, n), Execute first derives the same globally-ordered
// deduplicated plan every shard derives — unique keys in first-
// occurrence demand order, before any cache state is consulted, so the
// partition is a pure function of the demand list — and then executes
// only the entries at plan positions ≡ i (mod n).
//
// Simulations of one benchmark share one block store (DESIGN.md §19):
// the runs are grouped by benchmark, in first-appearance order, and
// dispatched in that order, so a store is live only while its
// benchmark's runs are running.
func (r *Runner) Execute(ctx context.Context, demands []Demand) error {
	seen := map[runKey]bool{}
	var jobs []job
	for _, d := range demands {
		prof, ok := workload.ByName(d.Bench)
		if !ok {
			return fmt.Errorf("exp: demand names unknown benchmark %q", d.Bench)
		}
		key := r.key(d.Spec, d.Bench)
		if seen[key] {
			r.mx.dedupSkips.Inc()
			continue
		}
		planPos := len(seen)
		seen[key] = true
		if planPos%r.shardCount != r.shardIndex {
			r.mx.shardSkips.Inc()
			continue
		}
		r.mu.Lock()
		_, cached := r.calls[key]
		r.mu.Unlock()
		if cached {
			r.mx.dedupSkips.Inc()
			continue
		}
		jobs = append(jobs, job{key: key, spec: d.Spec, prof: prof})
	}
	if r.obs != nil {
		r.obs.ExecutePlanned(len(jobs))
	}

	// Claim every entry first; a key another caller claimed since the
	// scan above is joined, not rerun.
	var owned []job
	for i := range jobs {
		j := &jobs[i]
		var owner bool
		if j.c, owner = r.claim(j.key); owner {
			owned = append(owned, *j)
		} else {
			r.mx.cacheJoins.Inc()
		}
	}
	r.dispatch(ctx, groupByBench(r.diskMisses(owned)))

	var first error
	for _, j := range jobs {
		if _, err := j.c.wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// job is one run Execute schedules, with its claimed cache entry.
type job struct {
	key  runKey
	spec SystemSpec
	prof workload.Profile
	c    *call
}

// diskMisses consults the disk cache for every job at once, publishes
// the hits and returns the misses in their original order.
func (r *Runner) diskMisses(jobs []job) []job {
	if r.disk == nil {
		return jobs
	}
	hit := make([]bool, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if hit[i] = r.diskHit(jobs[i].key, jobs[i].c); hit[i] {
				r.finish(jobs[i].key, jobs[i].c)
			}
		}(i)
	}
	wg.Wait()
	var misses []job
	for i, j := range jobs {
		if !hit[i] {
			misses = append(misses, j)
		}
	}
	return misses
}

// groupByBench stably sorts jobs in place by benchmark: benchmarks in
// order of first appearance, each benchmark's jobs in their original
// order.
func groupByBench(jobs []job) []job {
	rank := map[string]int{}
	for _, j := range jobs {
		if _, ok := rank[j.prof.Name]; !ok {
			rank[j.prof.Name] = len(rank)
		}
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return rank[a.prof.Name] - rank[b.prof.Name] })
	return jobs
}

// dispatch simulates jobs, already grouped by benchmark, in order on a
// pool of r.jobs workers, and publishes every outcome. Each benchmark
// gets a fresh block store when its first job is handed out; after its
// last job is handed out only the workers running its jobs still hold
// the store, so it becomes garbage when the last of them returns.
func (r *Runner) dispatch(ctx context.Context, jobs []job) {
	type task struct {
		job
		blocks *workload.Blocks
	}
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < min(r.jobs, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				r.simulateCall(ctx, t.key, t.c, t.spec, t.prof, t.blocks)
				r.finish(t.key, t.c)
			}
		}()
	}
	var blocks *workload.Blocks
	for i, j := range jobs {
		if i == 0 || j.prof.Name != jobs[i-1].prof.Name {
			blocks = workload.NewBlocks(j.prof, r.opt.Seed)
			if r.onBlocks != nil {
				r.onBlocks(blocks)
			}
		}
		tasks <- task{job: j, blocks: blocks}
	}
	close(tasks)
	wg.Wait()
}

// placeholderResult is what RunOne returns in recording mode. Its
// cycles, hit latency and energy components are all 1, so every ratio
// and geomean a Run phase takes of it is positive and the Run reaches
// its end.
var placeholderResult = RunResult{
	Cycles: 1,
	AvgHit: 1,
	Breakdown: energy.Breakdown{
		CoreDynJ: 1, L1DynJ: 1, CoreStaticJ: 1,
		L2HTreeJ: 1, L2ArrayJ: 1, L2StaticJ: 1, DRAMJ: 1,
	},
}

// recordRuns returns the distinct runs that run asks r.RunOne for, in
// the order it first asks for them, and switches r to recording mode for
// good: r claims, caches, simulates and observes nothing. A Run that
// fails while recording keeps the runs recorded so far; the real Run
// reports the error.
func recordRuns(r *Runner, run func(context.Context, *Runner) ([]*stats.Table, error)) []Demand {
	var plan []Demand
	r.plan = &plan
	_, _ = run(context.Background(), r)
	return plan
}

// Run plans and renders one experiment: its demand plan executes on the
// worker pool first, then the experiment's Run phase renders tables from
// the warmed cache.
func (r *Runner) Run(ctx context.Context, e Experiment) ([]*stats.Table, error) {
	if e.Demands != nil {
		if err := r.Execute(ctx, e.Demands(r.opt)); err != nil {
			return nil, err
		}
	}
	return e.Run(ctx, r)
}

// simulate performs one full system simulation of prof, whose blocks and
// streams come from gen (prof's generator at opt.Seed). It is a pure
// function of (spec, prof, opt): the hierarchy and processor are freshly
// constructed per call, and the only state gen may share with other runs
// is its block store, whose blocks are a pure function of the address,
// which is what makes parallel execution deterministic. reg (may be nil)
// receives write-only telemetry from every layer and never influences
// the result.
func simulate(ctx context.Context, spec SystemSpec, prof workload.Profile, opt Options, reg *metrics.Registry, gen *workload.Generator) (RunResult, error) {
	l2 := cachemodel.Config{
		Scheme:        spec.Scheme,
		DataWires:     spec.DataWires,
		ChunkBits:     spec.ChunkBits,
		SegmentBits:   spec.SegmentBits,
		Banks:         spec.Banks,
		CapacityBytes: spec.CapacityBytes,
		Cells:         spec.Cells,
		Periphery:     spec.Periphery,
		NUCA:          spec.NUCA,
	}
	if spec.ECCSegment > 0 {
		l2.ECC = cachemodel.ECCConfig{Enabled: true, SegmentBits: spec.ECCSegment}
	}
	h, err := cachesim.New(cachesim.Config{L2: l2, PrefetchNextLine: spec.Prefetch, Metrics: reg}, gen)
	if err != nil {
		return RunResult{}, fmt.Errorf("exp: %s/%s: %w", spec.Scheme, prof.Name, err)
	}
	simCfg := cpusim.Config{
		Kind:            spec.Kind,
		InstrPerContext: opt.InstrPerContext,
		Seed:            opt.Seed,
		Metrics:         reg,
	}.WithDefaults()
	res, err := cpusim.Run(ctx, simCfg, h, gen)
	if err != nil {
		return RunResult{}, err
	}
	params := energy.NiagaraLike
	if spec.Kind == cpusim.OutOfOrder {
		params = energy.OoO4Issue
	}
	bd := energy.Compute(params, energy.Activity{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		L1Accesses:   res.MemRefs,
		Cores:        simCfg.Cores,
		ClockGHz:     h.Model().Config().ClockGHz,
	}, h.Model(), h.DRAM())

	return RunResult{
		Bench:     prof.Name,
		Cycles:    res.Cycles,
		Breakdown: bd,
		AvgHit:    res.AvgHitLatencyCycles,
		Sim:       res,
		AreaMM2:   h.Model().AreaMM2(),
		LeakageW:  h.Model().LeakageW(),
	}, nil
}
