package main

import "desc/internal/link"

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerMetrics lists every per-layer metric the traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0.
func layerMetrics() []layerMetric {
	m := []layerMetric{
		{"workload.new_generator.calls", "count", "lower"},
		{"workload.new_generator.us", "us", "lower"},
		{"workload.new_generator.allocs", "count", "lower"},
		{"workload.fill_block.calls", "count", "lower"},
		{"workload.fill_block.ns", "ns", "lower"},
		{"workload.stream_next.calls", "count", "lower"},
		{"workload.stream_next.ns", "ns", "lower"},
		{"cpusim.quanta", "count", "lower"},
		{"cpusim.self_ns_per_quantum", "ns", "lower"},
		{"cpusim.run.allocs", "count", "lower"},
		{"cachesim.accesses", "count", "lower"},
		{"cachesim.access.self_ns", "ns", "lower"},
		{"cachesim.new.ms", "ms", "lower"},
		{"cachesim.new.allocs", "count", "lower"},
		{"cachesim.l1_hit_ratio", "ratio", "higher"},
		{"cachesim.l2_hit_ratio", "ratio", "higher"},
		{"cachesim.mshr_merges", "count", "higher"},
		{"cachesim.l2_transfers", "count", "lower"},
		{"cachesim.queue_delay_cycles", "cycles", "lower"},
		{"cachemodel.accesses", "count", "lower"},
		{"cachemodel.access.self_ns", "ns", "lower"},
	}
	for _, s := range link.Schemes() {
		m = append(m,
			layerMetric{"link.send_ns." + s, "ns", "lower"},
			layerMetric{"link.recv_ns." + s, "ns", "lower"},
			layerMetric{"link.blocks." + s, "count", "lower"})
	}
	return append(m,
		layerMetric{"dram.accesses", "count", "lower"},
		layerMetric{"dram.access.ns", "ns", "lower"},
		layerMetric{"dram.row_hit_ratio", "ratio", "higher"},
		layerMetric{"runcache.gets", "count", "lower"},
		layerMetric{"runcache.get_us", "us", "lower"},
		layerMetric{"runcache.puts", "count", "lower"},
		layerMetric{"runcache.put_us", "us", "lower"},
		layerMetric{"runcache.hit_ratio", "ratio", "higher"},
		layerMetric{"exp.demands", "count", "lower"},
		layerMetric{"exp.sims", "count", "lower"},
		layerMetric{"exp.dedup_skips", "count", "higher"},
		layerMetric{"exp.disk_hits", "count", "higher"},
		layerMetric{"exp.render.self_ms", "ms", "lower"},
		layerMetric{"serve.requests", "count", "higher"},
		layerMetric{"serve.handler_us_p50", "us", "lower"},
		layerMetric{"serve.codec_share", "ratio", "lower"},
		layerMetric{"serve.client_wait_us", "us", "lower"},
		layerMetric{"trace.overhead_ns", "ns", "lower"},
		layerMetric{"trace.unattributed_ns", "ns", "lower"},
	)
}

// perLayer builds the --trace 1 metric set from the measured values;
// every per-layer metric appears, 0 where the workload has no such work.
func perLayer(v map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}
