// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public entry points of internal/exp,
// internal/runcache and internal/serve, checks the workload's outputs,
// and prints its metrics; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: sweep-cold and serve-mix (see README.md). With
// --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a separate traced run reports the per-layer metrics.
// --record-digests rewrites digests.json from the current code instead
// of benchmarking.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "desc/internal/schemes" // register the literature codecs the experiments sweep
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable outcome: the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	// jobs bounds workers and client connections: the machine's CPUs.
	jobs int
	// scratch is a private directory for run caches, removed at exit.
	scratch string
	// log receives the human-readable report lines.
	log *bufio.Writer
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// workloads maps each workload to its timed and traced runs.
var workloads = map[string]struct {
	timed  func(*config) (*result, error)
	traced func(*config) (*result, error)
}{
	"sweep-cold": {runSweepCold, traceSweepCold},
	"serve-mix":  {runServeMix, traceServeMix},
}

func main() {
	name := flag.String("workload", "", "workload: sweep-cold or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	record := flag.Bool("record-digests", false, "rewrite digests.json from the current code and exit")
	flag.Parse()

	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		jobs:    runtime.NumCPU(),
		log:     bufio.NewWriter(os.Stdout),
	}
	if err := run(cfg, *name, *trace, *record); err != nil {
		cfg.log.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, name string, trace int, record bool) error {
	base := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	if record {
		return recordDigests(cfg, "digests.json")
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep-cold or serve-mix)", name)
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	do := w.timed
	if trace == 1 {
		do = w.traced
	}
	res, err := do(cfg)
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	cfg.logf("%s: attempted %d, failed %d, failed_frac %.6g", name, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	cfg.log.Write(line)
	cfg.log.WriteByte('\n')
	return cfg.log.Flush()
}

// setupReps is how many times a workload repeats its set-up. One
// set-up's time varied by a fifth either way within a run.
const setupReps = 7

// timeSetup runs setup reps times and returns the last set-up's value
// with the median set-up duration: setup_s is a median so one slow
// repetition does not move it.
func timeSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, quantile(secs, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// latencyReport logs a timing distribution with its sample count and
// returns its median and its q-quantile.
func latencyReport(cfg *config, what string, xs []float64, q float64, unit string) (p50, pq float64) {
	p50, pq = quantile(xs, 0.5), quantile(xs, q)
	// A reported tail needs at least ten samples beyond it; each workload
	// sizes its run so its fixed tail percentile has them.
	note := ""
	if float64(len(xs))*(1-q) < 10-1e-9 {
		note = " (fewer than 10 samples beyond the tail percentile)"
	}
	cfg.logf("%s: n=%d p50=%.4g %s p%s=%.4g %s%s", what, len(xs), p50, unit,
		strconv.FormatFloat(q*100, 'g', -1, 64), pq, unit, note)
	return p50, pq
}

// memPhase measures the memory of one measured phase: resident set
// size sampled every rssEvery, and the bytes allocated. The peak of a
// phase that runs two simulations at a time depends on when the garbage
// collector happens to run, so the phase reports the 95th percentile of
// its samples, which moves with the heap's size but not with one
// collection's timing.
type memPhase struct {
	allocStart uint64
	stop       chan struct{}
	done       chan []float64
}

const rssEvery = 20 * time.Millisecond

func startMemPhase() *memPhase {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &memPhase{allocStart: ms.TotalAlloc, stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		samples := []float64{rssBytes()}
		for {
			select {
			case <-p.stop:
				p.done <- append(samples, rssBytes())
				return
			case <-t.C:
				samples = append(samples, rssBytes())
			}
		}
	}()
	return p
}

// end stops the sampler and returns the phase's 95th-percentile RSS and
// allocated bytes, both in MB.
func (p *memPhase) end() (rssMB, allocMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(p.stop)
	return quantile(<-p.done, 0.95) / 1e6, float64(ms.TotalAlloc-p.allocStart) / 1e6
}

// rssBytes reads the process's resident set size.
func rssBytes() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize())
}

// endToEnd assembles the --trace 0 metric set. Every workload reports
// every metric; "op" is a simulation on sweep-cold and a request on
// serve-mix.
func endToEnd(setupS, workPerS, opP50ms, opTailms, rssMB, allocMBPerOp float64) map[string]metric {
	return map[string]metric{
		"setup_s":    {setupS, "s"},
		"work_per_s": {workPerS, "1/s"},
		"op_ms_p50":  {opP50ms, "ms"},
		"op_ms_tail": {opTailms, "ms"},
		"rss_mb_p95": {rssMB, "MB"},
		"alloc_mb":   {allocMBPerOp, "MB"},
	}
}
