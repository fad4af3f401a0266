package cpusim

import (
	"container/heap"
	"context"
	"math/rand"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/workload"
)

func system(t *testing.T, scheme string, wires int) (*cachesim.Hierarchy, *workload.Generator) {
	t.Helper()
	prof := workload.Parallel()[0]
	gen := workload.NewGenerator(prof, 1)
	h, err := cachesim.New(cachesim.Config{
		L2: cachemodel.Config{Scheme: scheme, DataWires: wires},
	}, gen)
	if err != nil {
		t.Fatal(err)
	}
	return h, gen
}

func TestDefaults(t *testing.T) {
	mt := Config{}.WithDefaults()
	if mt.Cores != 8 || mt.ContextsPerCore != 4 || mt.IssueWidth != 1 {
		t.Errorf("in-order defaults %+v do not match Table 1", mt)
	}
	ooo := Config{Kind: OutOfOrder}.WithDefaults()
	if ooo.Cores != 1 || ooo.ContextsPerCore != 1 || ooo.IssueWidth != 4 {
		t.Errorf("OoO defaults %+v do not match Table 1", ooo)
	}
	if _, err := Run(context.Background(), Config{Cores: -1, ContextsPerCore: 1, IssueWidth: 1, InstrPerContext: 1}, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestInstructionAccounting: the run commits exactly the configured budget.
func TestInstructionAccounting(t *testing.T) {
	h, gen := system(t, "binary", 64)
	cfg := Config{InstrPerContext: 5_000}
	res, err := Run(context.Background(), cfg, h, gen)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8 * 4 * 5_000)
	if res.Instructions != want {
		t.Errorf("instructions = %d, want %d", res.Instructions, want)
	}
	if res.Cycles == 0 || res.MemRefs == 0 {
		t.Error("empty run")
	}
	// Memory-intensive profiles: a substantial fraction of instructions
	// reference memory.
	frac := float64(res.MemRefs) / float64(res.Instructions)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("memory reference fraction %.2f outside [0.1,0.6]", frac)
	}
}

// TestDeterminism: identical configurations reproduce cycle-exact results.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		h, gen := system(t, "desc-zero", 128)
		res, err := Run(context.Background(), Config{InstrPerContext: 4_000}, h, gen)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.MemRefs != b.MemRefs {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestMultithreadingHidesLatency: with four contexts per core the
// execution time is far below the sum of serialized memory latencies, and
// fewer contexts run slower on the same per-context budget scaled to equal
// total work.
func TestMultithreadingHidesLatency(t *testing.T) {
	h1, gen1 := system(t, "binary", 64)
	one, err := Run(context.Background(), Config{Cores: 1, ContextsPerCore: 1, InstrPerContext: 16_000}, h1, gen1)
	if err != nil {
		t.Fatal(err)
	}
	h4, gen4 := system(t, "binary", 64)
	four, err := Run(context.Background(), Config{Cores: 1, ContextsPerCore: 4, InstrPerContext: 4_000}, h4, gen4)
	if err != nil {
		t.Fatal(err)
	}
	// Same total instructions on one core; four contexts overlap their
	// misses and should finish at least twice as fast.
	if four.Cycles*2 >= one.Cycles {
		t.Errorf("4 contexts (%d cycles) not ~2x faster than 1 context (%d cycles)", four.Cycles, one.Cycles)
	}
}

// TestDESCSlowdownSmallOnMT: the throughput-oriented multicore tolerates
// DESC's longer hit latency (Figure 20: under 2%).
func TestDESCSlowdownSmallOnMT(t *testing.T) {
	hb, genb := system(t, "binary", 64)
	base, err := Run(context.Background(), Config{InstrPerContext: 8_000}, hb, genb)
	if err != nil {
		t.Fatal(err)
	}
	hd, gend := system(t, "desc-zero", 128)
	descr, err := Run(context.Background(), Config{InstrPerContext: 8_000}, hd, gend)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(descr.Cycles)/float64(base.Cycles) - 1
	if slowdown > 0.05 {
		t.Errorf("multithreaded DESC slowdown %.1f%% exceeds 5%%", 100*slowdown)
	}
	// And DESC must actually lengthen L2 hits.
	if descr.AvgHitLatencyCycles <= base.AvgHitLatencyCycles {
		t.Error("DESC did not lengthen the average L2 hit")
	}
}

// TestOoOMoreSensitive: the latency-sensitive out-of-order core suffers
// more from DESC than the multithreaded cores do (Section 5.8).
func TestOoOMoreSensitive(t *testing.T) {
	prof := workload.SPEC()[1] // mcf: large working set
	ratioFor := func(kind CoreKind) float64 {
		gen := workload.NewGenerator(prof, 1)
		hb, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "binary", DataWires: 64}}, gen)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(context.Background(), Config{Kind: kind, InstrPerContext: 30_000}, hb, gen)
		if err != nil {
			t.Fatal(err)
		}
		gen2 := workload.NewGenerator(prof, 1)
		hd, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}, gen2)
		if err != nil {
			t.Fatal(err)
		}
		descr, err := Run(context.Background(), Config{Kind: kind, InstrPerContext: 30_000}, hd, gen2)
		if err != nil {
			t.Fatal(err)
		}
		return float64(descr.Cycles) / float64(base.Cycles)
	}
	ooo := ratioFor(OutOfOrder)
	if ooo < 1.0 {
		t.Errorf("OoO DESC ratio %.3f; latency-sensitive core should slow down", ooo)
	}
	if ooo > 1.25 {
		t.Errorf("OoO DESC ratio %.3f unreasonably large", ooo)
	}
}

// TestHierarchyStatsPropagate: the result carries the hierarchy's counts.
func TestHierarchyStatsPropagate(t *testing.T) {
	h, gen := system(t, "binary", 64)
	res, err := Run(context.Background(), Config{InstrPerContext: 3_000}, h, gen)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy.L1Misses == 0 || res.Hierarchy.L2Hits+res.Hierarchy.L2Misses == 0 {
		t.Error("hierarchy stats missing from result")
	}
	if res.Hierarchy != h.Stats() {
		t.Error("result stats diverge from hierarchy stats")
	}
}

// heapRef adapts coreHeap to container/heap, the reference order the
// typed heap must reproduce.
type heapRef []*coreState

func (h heapRef) Len() int            { return len(h) }
func (h heapRef) Less(i, j int) bool  { return h[i].now < h[j].now }
func (h heapRef) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *heapRef) Push(x interface{}) { *h = append(*h, x.(*coreState)) }
func (h *heapRef) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCoreHeapMatchesContainerHeap: the typed core heap steps cores in
// exactly container/heap's order, ties included, so the scheduler's
// interleaving of cores with equal local times is unchanged.
func TestCoreHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		var got coreHeap
		var want heapRef
		for i := 0; i < n; i++ {
			now := uint64(rng.Intn(4)) // few distinct times: many ties
			got = append(got, &coreState{id: i, now: now})
			want = append(want, &coreState{id: i, now: now})
		}
		got.init()
		heap.Init(&want)
		for step := 0; len(got) > 0; step++ {
			if len(got) != len(want) || got[0].id != want[0].id {
				t.Fatalf("trial %d step %d: root core %d, container/heap %d", trial, step, got[0].id, want[0].id)
			}
			if rng.Intn(6) == 0 {
				got.pop()
				heap.Pop(&want)
				continue
			}
			d := uint64(rng.Intn(3))
			got[0].now += d
			want[0].now += d
			got.fixRoot()
			heap.Fix(&want, 0)
		}
		if len(want) != 0 {
			t.Fatalf("trial %d: typed heap emptied with %d cores left in container/heap", trial, len(want))
		}
	}
}

// cyclicSource replays a fixed ring of block addresses, so after one lap
// the hierarchy has seen every block and holds steady-state state.
type cyclicSource struct {
	base uint64
	i    int
}

func (s *cyclicSource) Next() workload.Access {
	s.i++
	return workload.Access{Addr: s.base + uint64(s.i%256)*64, Write: s.i%5 == 0, Gap: 3}
}

// TestStepCoreZeroAllocs pins the scheduler's quantum at zero
// allocations once the hierarchy has warmed up.
func TestStepCoreZeroAllocs(t *testing.T) {
	h, _ := system(t, "desc-zero", 128)
	cfg := Config{InstrPerContext: 1 << 40}.WithDefaults()
	cs := &coreState{ready: make([]*hwContext, 0, cfg.ContextsPerCore)}
	for i := 0; i < cfg.ContextsPerCore; i++ {
		src := &cyclicSource{base: uint64(i+1) << 30}
		c := &hwContext{stream: src, instrLeft: cfg.InstrPerContext}
		c.pending = src.Next()
		c.gapLeft = int64(c.pending.Gap)
		cs.ctxs = append(cs.ctxs, c)
	}
	var res Result
	for i := 0; i < 20_000; i++ {
		stepCore(cfg, cs, h, &res)
	}
	// AllocsPerRun rounds its average down, so each run steps many
	// quanta: one allocation per quantum must not average out to zero.
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			stepCore(cfg, cs, h, &res)
		}
	}); a != 0 {
		t.Errorf("stepCore: %v allocs per 100 quanta after warm-up, want 0", a)
	}
	if cs.done {
		t.Fatal("core finished during the test")
	}
}
