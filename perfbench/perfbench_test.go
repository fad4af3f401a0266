package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"desc/internal/cpusim"
	"desc/internal/exp"
	"desc/internal/workload"
)

// testConfig is a one-second, seed-1 configuration whose report lines go
// to the test log.
func testConfig(t *testing.T) (*config, *bytes.Buffer) {
	var out bytes.Buffer
	t.Cleanup(func() { t.Log(out.String()) })
	return &config{
		seed:    1,
		seconds: time.Second,
		jobs:    2,
		scratch: t.TempDir(),
		log:     bufio.NewWriter(&out),
	}, &out
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsMatchBenchmarkFile pins the reported metric sets, units
// and workloads to BENCHMARK.json.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.PerLayer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics()")
	}
	e2e := endToEnd(1, 1, 1, 1, 1, 1)
	if len(f.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(f.EndToEnd), len(e2e))
	}
	for _, m := range f.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, want)
	}
}

// checkResult asserts a run checked its outputs without failures and
// reported exactly the wanted metric names.
func checkResult(t *testing.T, name string, res *result, want map[string]metric) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", name, res.Attempted, res.Failed)
	}
	if got, w := sortedKeys(res.Metrics), sortedKeys(want); !reflect.DeepEqual(got, w) {
		t.Errorf("%s: metrics %v, want %v", name, got, w)
	}
}

// TestShortRuns runs each workload's timed run for one second.
func TestShortRuns(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		if testing.Short() && name != "serve-mix" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg, _ := testConfig(t)
			res, err := workloads[name].timed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, name, res, endToEnd(0, 0, 0, 0, 0, 0))
			for m, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, v.Value)
				}
			}
		})
	}
}

// TestTracedRuns runs each workload's traced run.
func TestTracedRuns(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		if testing.Short() && name != "serve-mix" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg, _ := testConfig(t)
			res, err := workloads[name].traced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, name, res, perLayer(nil))
		})
	}
}

// TestRebuildMatchesRunner checks that the traced run's public-API
// rebuild of a simulation, traced and untraced, is bit-identical to
// exp.Runner's result for an in-order and an out-of-order demand.
func TestRebuildMatchesRunner(t *testing.T) {
	ctx := context.Background()
	opt := sweepOptions(1)
	r, err := exp.NewRunner(opt, exp.Jobs(1))
	if err != nil {
		t.Fatal(err)
	}
	ooo := exp.DESCZero()
	ooo.Kind = cpusim.OutOfOrder
	var want exp.RunResult
	for _, spec := range []exp.SystemSpec{exp.BinaryBase(), ooo} {
		prof, _ := workload.ByName("CG")
		want, err = r.RunOne(ctx, spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			got, err := rebuildSim(ctx, spec, prof.Name, r.Options(), traced, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got.res, want) {
				t.Errorf("%s traced=%v: rebuild\n%#v\nRunner\n%#v", spec, traced, got.res, want)
			}
		}
	}
	changed := want
	changed.AvgHit = -want.AvgHit
	if sameResult(want, changed) {
		t.Error("sameResult misses a changed float")
	}
}

// TestSimSeedCoversDigests checks every workload seed maps to a seed
// with recorded digests.
func TestSimSeedCoversDigests(t *testing.T) {
	for _, seed := range []int64{-9, -1, 0, 1, 7, 8, 12345} {
		if _, err := expectedDigests(sweepOptions(seed)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestQuantile pins the interpolation.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
