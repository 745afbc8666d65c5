package main

import (
	"fmt"
	"math"
)

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names, units,
// directions and bounds (bench_test.go holds the two in step), and later
// issues cite them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// get worse before `bench compare` calls it a regression (end-to-end
	// metrics only).
	Bound float64
}

// endToEnd are the numbers a user of the stack sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"encode_fps", "frames/s", "higher", 0.25},
	{"encode_p50_ms", "ms", "lower", 0.25},
	{"encode_p95_ms", "ms", "lower", 0.25},
	{"decode_fps", "frames/s", "higher", 0.25},
	{"bits_per_point", "bit", "lower", 0.03},
	{"attr_psnr_db", "dB", "higher", 0.005},
	{"g2g_p50_ms", "ms", "lower", 0.25},
	{"g2g_p95_ms", "ms", "lower", 0.25},
	{"decoded_ratio", "ratio", "higher", 0.005},
	{"serve_cpu_us_per_viewer_frame", "us", "lower", 0.25},
	{"serve_viewer_fps", "viewer-frames/s", "higher", 0.25},
	{"egress_bytes_per_viewer_frame", "B", "lower", 0.03},
}

// perLayer are the single-layer numbers of the traced pass (layer = module
// name). No bounds: they explain a move of an end-to-end metric, they are
// not gated themselves.
var perLayer = []metricDef{
	{"dataset.gen_ms_per_frame", "ms", "lower", 0},
	{"morton.encode_ns_per_pt", "ns", "lower", 0},
	{"morton.sort_ns_per_pt", "ns", "lower", 0},
	{"paroctree.build_ns_per_pt", "ns", "lower", 0},
	{"paroctree.deserialize_ns_per_pt", "ns", "lower", 0},
	{"paroctree.geom_bytes_per_pt", "B", "lower", 0},
	{"attr.encode_ns_per_pt", "ns", "lower", 0},
	{"attr.decode_ns_per_pt", "ns", "lower", 0},
	{"attr.bytes_per_pt", "B", "lower", 0},
	{"interframe.encode_ns_per_pt", "ns", "lower", 0},
	{"interframe.decode_ns_per_pt", "ns", "lower", 0},
	{"interframe.reuse_ratio", "ratio", "higher", 0},
	{"interframe.bytes_per_pt", "B", "lower", 0},
	{"entropy.compress_mb_s", "MB/s", "higher", 0},
	{"entropy.decompress_mb_s", "MB/s", "higher", 0},
	{"entropy.ratio", "ratio", "lower", 0},
	{"codec.geometry_ms", "ms", "lower", 0},
	{"codec.finish_ms", "ms", "lower", 0},
	{"codec.iframe_ms", "ms", "lower", 0},
	{"codec.pframe_ms", "ms", "lower", 0},
	{"codec.write_us", "us", "lower", 0},
	{"codec.read_us", "us", "lower", 0},
	{"codec.layout_parse_us", "us", "lower", 0},
	{"codec.decode_ms", "ms", "lower", 0},
	{"codec.allocs_per_frame", "count", "lower", 0},
	{"codec.alloc_bytes_per_frame", "B", "lower", 0},
	{"codec.encode_fps_1core", "frames/s", "higher", 0},
	{"codec.core_scaling_x", "x", "higher", 0},
	{"edgesim.sim_ms_per_frame", "ms", "lower", 0},
	{"edgesim.sim_energy_mj_per_frame", "mJ", "lower", 0},
	{"edgesim.model_drift_x", "x", "lower", 0},
	{"edgesim.pool_dispatch_us", "us", "lower", 0},
	{"packet.packetize_ns_per_pkt", "ns", "lower", 0},
	{"packet.parse_ns_per_pkt", "ns", "lower", 0},
	{"packet.count_per_frame", "count", "lower", 0},
	{"packet.header_overhead_ratio", "ratio", "lower", 0},
	{"session.emit_us_per_frame", "us", "lower", 0},
	{"server.submit_wait_p95_ms", "ms", "lower", 0},
	{"server.queue_watermark", "count", "lower", 0},
	{"server.pipeline_drops", "count", "lower", 0},
	{"server.encode_only_cpu_ms_per_frame", "ms", "lower", 0},
	{"viewer.marginal_cpu_us_per_frame", "us", "lower", 0},
	{"shard.skew_x", "x", "lower", 0},
	{"viewer.frames_dropped", "count", "lower", 0},
	{"viewer.resyncs", "count", "lower", 0},
	{"viewer.retx_misses", "count", "lower", 0},
	{"viewer.tiles_culled_per_frame", "count", "higher", 0},
	{"viewer.culled_bytes_ratio", "ratio", "higher", 0},
	{"viewer.layer_downswitches", "count", "lower", 0},
	{"fec.parity_per_frame", "count", "lower", 0},
	{"fec.overhead_ratio", "ratio", "lower", 0},
	{"fec.repair_ratio", "ratio", "higher", 0},
	{"receiver.ingest_ns_per_pkt", "ns", "lower", 0},
	{"receiver.nacks_per_frame", "count", "lower", 0},
	{"receiver.recovered_ratio", "ratio", "higher", 0},
	{"receiver.concealed_frames", "count", "lower", 0},
	{"receiver.skipped_frames", "count", "lower", 0},
	{"receiver.recovery_delay_p95_ms", "ms", "lower", 0},
	{"viewport.sees_aabb_ns", "ns", "lower", 0},
	{"linksim.sim_link_ms_per_frame", "ms", "lower", 0},
	{"linksim.sim_tx_mj_per_frame", "mJ", "lower", 0},
	{"harness.gen_late_p99_ms", "ms", "lower", 0},
	{"harness.cpu_util", "ratio", "lower", 0},
	{"harness.peak_heap_mb", "MB", "lower", 0},
	{"harness.gc_pause_ms", "ms", "lower", 0},
	{"harness.encode_p99_ms", "ms", "lower", 0},
	{"harness.g2g_p99_ms", "ms", "lower", 0},
	{"harness.clean_g2g_p95_ms", "ms", "lower", 0},
	{"harness.lossy_g2g_p95_ms", "ms", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "lower", 0},
	{"harness.frame_cover_ratio", "ratio", "higher", 0},
}

func findDef(table []metricDef, name string) (metricDef, bool) {
	for _, d := range table {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one reported value. N is the sample count behind a timing
// (0 for counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects the metrics of one run against one of the tables.
type metricSet struct {
	table []metricDef
	m     map[string]metric
}

func newMetricSet(table []metricDef) *metricSet {
	return &metricSet{table: table, m: make(map[string]metric, len(table))}
}

// set records a value under a declared name; an undeclared name is a bug in
// the harness, not in the program under test.
func (s *metricSet) set(name string, v float64) { s.setN(name, v, 0) }

func (s *metricSet) setN(name string, v float64, n int) {
	d, ok := findDef(s.table, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	s.m[name] = metric{Value: v, Unit: d.Unit, N: n}
}

// complete fills every declared name the workload did not exercise with 0,
// so each run reports the full table, and rejects values that are not
// finite numbers.
func (s *metricSet) complete() error {
	for _, d := range s.table {
		m, ok := s.m[d.Name]
		if !ok {
			s.m[d.Name] = metric{Unit: d.Unit}
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	return nil
}
