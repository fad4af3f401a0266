package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/dram"
	"desc/internal/energy"
	"desc/internal/exp"
	"desc/internal/link"
	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/workload"
)

// The traced run attributes host time to layers from the benchmark's own
// code: it times calls into each layer's public functions, and for layers
// only reachable from inside another (cachesim.Hierarchy.Access,
// cachemodel.Model.Access, link Send, dram.DRAM.Access) it replays the
// addresses and blocks captured at the workload hooks into fresh
// instances and times those. Nothing inside the program is instrumented.
// Self time is a layer's time minus its children's; what no layer
// accounts for is reported as trace.unattributed_ns, and the cost of the
// hooks as trace.overhead_ns (traced minus untraced wall time of the same
// work).

// mallocs returns the process's cumulative heap allocation count. The
// traced run allocates from one goroutine, so deltas are per call.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// issued is one memory reference a context issued, in issue order.
type issued struct {
	addr      uint64
	ctx, core int32
	gap       int32
	write     bool
}

// hooks times and captures a traced simulation's calls into the
// workload layer.
type hooks struct {
	fillCalls, fillNS uint64
	nextCalls, nextNS uint64
	fillAddrs         []uint64
	fillData          []byte
	refs              []issued
}

// tracedBlocks is the timing cachesim.BlockSource: it times the
// generator's FillBlockData and captures each transferred block.
type tracedBlocks struct {
	gen *workload.Generator
	h   *hooks
}

func (b tracedBlocks) FillBlockData(addr uint64, buf []byte) {
	start := time.Now()
	b.gen.FillBlockData(addr, buf)
	b.h.fillNS += uint64(time.Since(start))
	b.h.fillCalls++
	b.h.fillAddrs = append(b.h.fillAddrs, addr)
	b.h.fillData = append(b.h.fillData, buf...)
}

// tracedStreams is the timing cpusim.StreamSource.
type tracedStreams struct {
	gen     *workload.Generator
	h       *hooks
	perCore int
}

func (s tracedStreams) Stream(ctx, nctx int) cpusim.AccessSource {
	return &tracedStream{s: s.gen.Stream(ctx, nctx), ctx: int32(ctx), core: int32(ctx / s.perCore), h: s.h}
}

// tracedStream times Next and records the reference the simulator just
// issued: cpusim fetches a context's next reference right after issuing
// its pending one to the hierarchy.
type tracedStream struct {
	s         *workload.Stream
	ctx, core int32
	h         *hooks
	pending   workload.Access
	primed    bool
}

func (s *tracedStream) Next() workload.Access {
	start := time.Now()
	a := s.s.Next()
	s.h.nextNS += uint64(time.Since(start))
	s.h.nextCalls++
	if s.primed {
		s.h.refs = append(s.h.refs, issued{addr: s.pending.Addr, ctx: s.ctx, core: s.core, gap: int32(s.pending.Gap), write: s.pending.Write})
	}
	s.pending, s.primed = a, true
	return a
}

// rebuilt is one simulation rebuilt from public APIs, with the timings
// of its top-level calls.
type rebuilt struct {
	res  exp.RunResult
	h    *cachesim.Hierarchy
	gen  *workload.Generator
	hook *hooks // nil when untraced

	wallNS, newGenNS, cacheNewNS, runNS  int64
	newGenAllocs, cacheNewAllocs, runAll uint64
}

// rebuildSim performs the simulation exp.Runner performs for (spec,
// bench) under opt — generator, hierarchy, processor, energy — from the
// layers' public APIs. With traced, the workload layer is reached
// through the timing hooks and each call's allocations are counted; reg
// receives the layers' own counters.
func rebuildSim(ctx context.Context, spec exp.SystemSpec, bench string, opt exp.Options, traced bool, reg *metrics.Registry) (*rebuilt, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	b := &rebuilt{}
	start := time.Now()
	var m0 uint64
	if traced {
		m0 = mallocs()
	}
	t0 := time.Now()
	b.gen = workload.NewGenerator(prof, opt.Seed)
	b.newGenNS = int64(time.Since(t0))
	if traced {
		m1 := mallocs()
		b.newGenAllocs, m0 = m1-m0, m1
	}

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
	var blocks cachesim.BlockSource = b.gen
	simCfg := cpusim.Config{Kind: spec.Kind, InstrPerContext: opt.InstrPerContext, Seed: opt.Seed, Metrics: reg}.WithDefaults()
	var streams cpusim.StreamSource = plainStreams{b.gen}
	if traced {
		b.hook = &hooks{}
		blocks = tracedBlocks{gen: b.gen, h: b.hook}
		streams = tracedStreams{gen: b.gen, h: b.hook, perCore: simCfg.ContextsPerCore}
	}
	t0 = time.Now()
	h, err := cachesim.New(cachesim.Config{L2: l2, PrefetchNextLine: spec.Prefetch, Metrics: reg}, blocks)
	b.cacheNewNS = int64(time.Since(t0))
	if err != nil {
		return nil, err
	}
	b.h = h
	if traced {
		m1 := mallocs()
		b.cacheNewAllocs, m0 = m1-m0, m1
	}

	t0 = time.Now()
	res, err := cpusim.RunWith(ctx, simCfg, h, streams)
	b.runNS = int64(time.Since(t0))
	if err != nil {
		return nil, err
	}
	if traced {
		b.runAll = mallocs() - m0
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
	b.res = exp.RunResult{
		Bench:     prof.Name,
		Cycles:    res.Cycles,
		Breakdown: bd,
		AvgHit:    res.AvgHitLatencyCycles,
		Sim:       res,
		AreaMM2:   h.Model().AreaMM2(),
		LeakageW:  h.Model().LeakageW(),
	}
	b.wallNS = int64(time.Since(start))
	return b, nil
}

// plainStreams is the untraced stream source: the generator's own
// streams, as cpusim.Run uses them.
type plainStreams struct{ gen *workload.Generator }

func (s plainStreams) Stream(ctx, nctx int) cpusim.AccessSource { return s.gen.Stream(ctx, nctx) }

// sameResult reports whether two results are bit-identical, floats
// included (%#v prints every float64 exactly, and -0 apart from 0).
func sameResult(a, b exp.RunResult) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// simLayers accumulates per-layer numbers over traced simulations.
type simLayers struct {
	sims                              int
	tracedNS, untracedNS              int64
	newGenNS, newGenAlloc             int64
	fillCalls, fillNS                 int64
	nextCalls, nextNS                 int64
	cacheNewNS, cacheNewAllocs        int64
	cpusimSelfNS, runAllocs           int64
	hierAccesses, hierSelfNS          int64
	cmAccesses, cmSelfNS              int64
	dramAccesses, dramRowHits, dramNS int64
	sendNS, blocks                    map[string]int64
	// replayTransfers counts the hierarchy replay's L2 transfers, to set
	// beside cmAccesses (the simulations' own) as a check on the replay.
	replayTransfers int64
}

// fillTimer is an untraced BlockSource that only times its calls, for
// the hierarchy replay.
type fillTimer struct {
	gen *workload.Generator
	ns  *int64
}

func (f fillTimer) FillBlockData(addr uint64, buf []byte) {
	start := time.Now()
	f.gen.FillBlockData(addr, buf)
	*f.ns += int64(time.Since(start))
}

// addReplays attributes b's hierarchy time to its layers by replaying
// the captured references into a fresh hierarchy and the captured
// blocks into a fresh cache model, fresh links and a fresh DRAM, and
// adds the result to l. untracedNS is the same simulation's untraced
// wall time.
func (l *simLayers) addReplays(spec exp.SystemSpec, b *rebuilt, untracedNS int64) error {
	hk := b.hook
	mcfg := b.h.Model().Config()
	blockBytes := mcfg.BlockBytes
	nfill := len(hk.fillAddrs)

	// Hierarchy: the issued references in issue order, each context
	// issuing its next one its instruction gap after the previous one
	// completed, as a blocking in-order context does.
	var replayFillNS int64
	h2, err := cachesim.New(cachesim.Config{L2: mcfg, PrefetchNextLine: spec.Prefetch}, fillTimer{gen: b.gen, ns: &replayFillNS})
	if err != nil {
		return err
	}
	ctxs := int32(0)
	for _, r := range hk.refs {
		ctxs = max(ctxs, r.ctx+1)
	}
	clock := make([]uint64, ctxs)
	t0 := time.Now()
	for _, r := range hk.refs {
		clock[r.ctx] = h2.Access(clock[r.ctx]+uint64(r.gap)+1, int(r.core), r.addr, r.write)
	}
	hierNS := int64(time.Since(t0))
	h2Model, _, _, _, _ := h2.Model().Stats()
	h2DRAM, _, _ := h2.DRAM().Stats()

	// Cache model and links: every captured transfer, to its bank.
	m2, err := cachemodel.New(mcfg)
	if err != nil {
		return err
	}
	bankOf := func(addr uint64) int { return int((addr / uint64(blockBytes)) % uint64(m2.Banks())) }
	t0 = time.Now()
	for i, addr := range hk.fillAddrs {
		m2.Access(bankOf(addr), hk.fillData[i*blockBytes:(i+1)*blockBytes], false)
	}
	cmNS := int64(time.Since(t0))
	lspec := link.Spec{Scheme: mcfg.Scheme, BlockBits: blockBytes * 8, DataWires: mcfg.DataWires, ChunkBits: mcfg.ChunkBits, SegmentBits: mcfg.SegmentBits}
	links := make([]link.Link, m2.Banks())
	for i := range links {
		if links[i], err = link.New(lspec); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for i, addr := range hk.fillAddrs {
		links[bankOf(addr)].Send(hk.fillData[i*blockBytes : (i+1)*blockBytes])
	}
	sendNS := int64(time.Since(t0))

	// DRAM: the transferred addresses, as reads.
	d2, err := dram.New(b.h.DRAM().Config())
	if err != nil {
		return err
	}
	var dramClock uint64
	t0 = time.Now()
	for _, addr := range hk.fillAddrs {
		dramClock += 64
		d2.Access(dramClock, addr, false)
	}
	dramPerCall := float64(time.Since(t0).Nanoseconds()) / float64(max(nfill, 1))
	cmPerCall := float64(cmNS) / float64(max(nfill, 1))

	dramAcc, rowHits, _ := b.h.DRAM().Stats()
	hierSelf := hierNS - replayFillNS - int64(cmPerCall*float64(h2Model)) - int64(dramPerCall*float64(h2DRAM))
	dramNS := int64(dramPerCall * float64(dramAcc))
	overhead := b.wallNS - untracedNS
	hierInSitu := hierSelf + int64(hk.fillNS) + cmNS + dramNS
	st := b.h.Stats()

	l.sims++
	l.tracedNS += b.wallNS
	l.untracedNS += untracedNS
	l.newGenNS += b.newGenNS
	l.newGenAlloc += int64(b.newGenAllocs)
	l.fillCalls += int64(hk.fillCalls)
	l.fillNS += int64(hk.fillNS)
	l.nextCalls += int64(hk.nextCalls)
	l.nextNS += int64(hk.nextNS)
	l.cacheNewNS += b.cacheNewNS
	l.cacheNewAllocs += int64(b.cacheNewAllocs)
	l.cpusimSelfNS += b.runNS - int64(hk.nextNS) - hierInSitu - overhead
	l.runAllocs += int64(b.runAll)
	l.hierAccesses += int64(st.L1Hits + st.L1Misses)
	l.hierSelfNS += hierSelf
	l.cmAccesses += int64(nfill)
	l.replayTransfers += int64(h2Model)
	l.cmSelfNS += cmNS - sendNS
	l.dramAccesses += int64(dramAcc)
	l.dramRowHits += int64(rowHits)
	l.dramNS += dramNS
	l.sendNS[mcfg.Scheme] += sendNS
	l.blocks[mcfg.Scheme] += int64(nfill)
	return nil
}

// traceSample picks the traced demands: every fourth unique demand of
// each (core kind, scheme) group, so every scheme and both core kinds
// appear and the mix follows the plan's.
func traceSample(plan []exp.Demand) []exp.Demand {
	type group struct {
		kind   cpusim.CoreKind
		scheme string
	}
	unique := map[exp.Demand]bool{}
	seen := map[group]int{}
	var out []exp.Demand
	for _, d := range plan {
		if unique[d] {
			continue
		}
		unique[d] = true
		g := group{d.Spec.Kind, d.Spec.Scheme}
		if seen[g]%4 == 0 {
			out = append(out, d)
		}
		seen[g]++
	}
	return out
}

// traceSims rebuilds each demand untraced and traced on this goroutine,
// checks both against the Runner's result for the same demand, and
// attributes the traced run's time to layers. It returns the layer
// numbers and the count of mismatching rebuilds.
func traceSims(ctx context.Context, cfg *config, r *exp.Runner, demands []exp.Demand, reg *metrics.Registry) (*simLayers, int, error) {
	l := &simLayers{sendNS: map[string]int64{}, blocks: map[string]int64{}}
	bad := 0
	for _, d := range demands {
		prof, _ := workload.ByName(d.Bench)
		want, err := r.RunOne(ctx, d.Spec, prof)
		if err != nil {
			return nil, 0, err
		}
		plain, err := rebuildSim(ctx, d.Spec, d.Bench, r.Options(), false, nil)
		if err != nil {
			return nil, 0, err
		}
		traced, err := rebuildSim(ctx, d.Spec, d.Bench, r.Options(), true, reg)
		if err != nil {
			return nil, 0, err
		}
		if !sameResult(plain.res, want) || !sameResult(traced.res, want) {
			bad++
			cfg.logf("output check: rebuilt %s/%s differs from the Runner's result", d.Spec, d.Bench)
		}
		if err := l.addReplays(d.Spec, traced, plain.wallNS); err != nil {
			return nil, 0, err
		}
	}
	return l, bad, nil
}

// renderGenerators replays the generator construction the experiments'
// render phase performs outside the run cache (fig12 and fig13 over the
// quick profiles, ext02 over Art) and returns its calls, time and
// allocations.
func renderGenerators(seed int64) (calls, ns, allocs int64) {
	names := append(append(append([]string(nil), quickProfiles...), quickProfiles...), "Art")
	for _, name := range names {
		prof, _ := workload.ByName(name)
		m0 := mallocs()
		t0 := time.Now()
		workload.NewGenerator(prof, seed)
		ns += int64(time.Since(t0))
		allocs += int64(mallocs() - m0)
		calls++
	}
	return calls, ns, allocs
}

// cacheReplay times the disk cache's Get and Put over src's entries
// into a fresh store in dir: gets miss, as on a cold sweep, then puts
// write the entries back.
func cacheReplay(src *runcache.Store, dir string) (getNS, putNS int64, err error) {
	keys, err := src.Keys()
	if err != nil {
		return 0, 0, err
	}
	dst, err := runcache.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	for _, k := range keys {
		payload, ok := src.Get(k)
		if !ok {
			return 0, 0, fmt.Errorf("runcache entry %s unreadable", k)
		}
		t0 := time.Now()
		dst.Get(k)
		t1 := time.Now()
		if err := dst.Put(k, payload); err != nil {
			return 0, 0, err
		}
		getNS += int64(t1.Sub(t0))
		putNS += int64(time.Since(t1))
	}
	return getNS, putNS, nil
}

// counter reads a registry counter by name (0 when absent).
func counter(reg *metrics.Registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceSweepCold is sweep-cold's traced run: the cold sweep with the
// Runner's and the cache's counters, a replay of its disk-cache traffic,
// and a layer-by-layer rebuild of a sample of its simulations.
func traceSweepCold(cfg *config) (*result, error) {
	ctx := context.Background()
	st, err := newSweepSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	sw, err := runSweep(ctx, cfg, st, nil, filepath.Join(cfg.scratch, "cold"), exp.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	renderStart := time.Now()
	digests, err := renderAll(ctx, sw.runner, st.exps, nil)
	if err != nil {
		return nil, err
	}
	renderNS := int64(time.Since(renderStart))
	res := &result{Attempted: len(st.exps), Failed: mismatches(cfg, digests, st.want)}
	cs := sw.store.Stats()
	getNS, putNS, err := cacheReplay(sw.store, filepath.Join(cfg.scratch, "replay"))
	if err != nil {
		return nil, err
	}
	_, genNS, _ := renderGenerators(st.opt.Seed)

	simReg := metrics.NewRegistry()
	sample := traceSample(st.plan)
	l, bad, err := traceSims(ctx, cfg, sw.runner, sample, simReg)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(sample)
	res.Failed += bad

	v := l.values(simReg)
	v["runcache.gets"] = float64(cs.Hits + cs.Misses)
	v["runcache.get_us"] = float64(getNS) / 1e3
	v["runcache.puts"] = float64(cs.Writes)
	v["runcache.put_us"] = float64(putNS) / 1e3
	v["runcache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	v["exp.demands"] = float64(len(st.plan))
	v["exp.sims"] = counter(reg, "exp/runs_done")
	v["exp.dedup_skips"] = counter(reg, "exp/dedup_skips")
	v["exp.disk_hits"] = counter(reg, "exp/disk_hits")
	v["exp.render.self_ms"] = float64(renderNS-genNS) / 1e6
	cfg.logf("sweep-cold traced: sweep %.4g s (%d simulations), render %.4g ms; simulation layers over a sample of %d",
		sw.wall.Seconds(), len(sw.simMS), float64(renderNS)/1e6, len(sample))
	l.logShares(cfg)
	res.Metrics = perLayer(v)
	return res, nil
}

// values maps the accumulated numbers to per-layer metric names.
func (l *simLayers) values(reg *metrics.Registry) map[string]float64 {
	quanta := counter(reg, "cpusim/quanta")
	l1h, l1m := counter(reg, "cachesim/l1_hits"), counter(reg, "cachesim/l1_misses")
	l2h, l2m := counter(reg, "cachesim/l2_hits"), counter(reg, "cachesim/l2_misses")
	v := map[string]float64{
		"workload.new_generator.calls":  float64(l.sims), // one generator per simulation
		"workload.new_generator.us":     float64(l.newGenNS) / 1e3,
		"workload.new_generator.allocs": float64(l.newGenAlloc),
		"workload.fill_block.calls":     float64(l.fillCalls),
		"workload.fill_block.ns":        float64(l.fillNS),
		"workload.stream_next.calls":    float64(l.nextCalls),
		"workload.stream_next.ns":       float64(l.nextNS),
		"cpusim.quanta":                 quanta,
		"cpusim.self_ns_per_quantum":    ratio(float64(l.cpusimSelfNS), quanta),
		"cpusim.run.allocs":             float64(l.runAllocs),
		"cachesim.accesses":             float64(l.hierAccesses),
		"cachesim.access.self_ns":       float64(l.hierSelfNS),
		"cachesim.new.ms":               float64(l.cacheNewNS) / 1e6,
		"cachesim.new.allocs":           float64(l.cacheNewAllocs),
		"cachesim.l1_hit_ratio":         ratio(l1h, l1h+l1m),
		"cachesim.l2_hit_ratio":         ratio(l2h, l2h+l2m),
		"cachesim.mshr_merges":          counter(reg, "cachesim/mshr_merges"),
		"cachesim.l2_transfers":         counter(reg, "cachesim/l2_transfers"),
		"cachesim.queue_delay_cycles":   counter(reg, "cachesim/queue_delay_cycles"),
		"cachemodel.accesses":           float64(l.cmAccesses),
		"cachemodel.access.self_ns":     float64(l.cmSelfNS),
		"dram.accesses":                 float64(l.dramAccesses),
		"dram.access.ns":                float64(l.dramNS),
		"dram.row_hit_ratio":            ratio(float64(l.dramRowHits), float64(l.dramAccesses)),
		"trace.overhead_ns":             float64(l.tracedNS - l.untracedNS),
		"trace.unattributed_ns":         float64(l.unattributed()),
	}
	for s, ns := range l.sendNS {
		v["link.send_ns."+s] = float64(ns)
		v["link.blocks."+s] = float64(l.blocks[s])
	}
	return v
}

// attributed is the sum of every layer's self time.
func (l *simLayers) attributed() int64 {
	var send int64
	for _, ns := range l.sendNS {
		send += ns
	}
	return l.newGenNS + l.fillNS + l.nextNS + l.cacheNewNS + l.cpusimSelfNS + l.hierSelfNS + l.cmSelfNS + send + l.dramNS
}

// unattributed is the traced time, less the tracing overhead, that no
// layer accounts for.
func (l *simLayers) unattributed() int64 {
	return l.untracedNS - l.attributed()
}

// logShares prints each simulation layer's share of the untraced host
// time of the sampled simulations, with its allocations.
func (l *simLayers) logShares(cfg *config) {
	total := float64(l.untracedNS)
	var send int64
	for _, ns := range l.sendNS {
		send += ns
	}
	rows := []struct {
		layer  string
		ns     int64
		allocs string
	}{
		{"workload", l.newGenNS + l.fillNS + l.nextNS, fmt.Sprintf("%d (NewGenerator)", l.newGenAlloc)},
		{"cpusim", l.cpusimSelfNS, fmt.Sprintf("%d (RunWith, incl. hierarchy)", l.runAllocs)},
		{"cachesim", l.cacheNewNS + l.hierSelfNS, fmt.Sprintf("%d (New)", l.cacheNewAllocs)},
		{"cachemodel", l.cmSelfNS, "-"},
		{"codecs (link)", send, "-"},
		{"dram", l.dramNS, "-"},
		{"unattributed", l.unattributed(), "-"},
	}
	cfg.logf("layer shares over %d simulations, %.4g s untraced, tracing overhead %.1f%%; the hierarchy replay made %d L2 transfers for the simulations' %d:",
		l.sims, total/1e9, 100*float64(l.tracedNS-l.untracedNS)/total, l.replayTransfers, l.cmAccesses)
	for _, r := range rows {
		cfg.logf("  %-14s %6.1f%%  allocs %s", r.layer, 100*float64(r.ns)/total, r.allocs)
	}
}
