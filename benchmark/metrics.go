package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
)

// metricDef declares one metric. BENCHMARK.json carries name, unit, better
// (and bound, for end-to-end metrics); the layer, the end-to-end metric a
// layer metric should move and the workload it should move it on live
// here and in README.md, because BENCHMARK.json admits no other keys.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric it should move
	On     string  // per-layer only: the workload it should move it on
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one. On the two read-only
// workloads a transaction is one autocommit Retrieve, so txn_* equal
// read_*; on the write workloads txn_* cover Begin…Commit blocks and
// autocommit updates only.
//
// fail_share and write_amp are end-to-end by nature but are reported on
// the per-layer list as sim.fail_share and sim.write_amp: both are 0 on
// some workload at a healthy commit, and a bounded metric may never be 0.
// The tail percentiles are on the per-layer list for their spread.
//
// A metric has one bound for all workloads, so the noisiest workload sets
// it: over ten seeds the timing metrics spread (quartile distance over
// median) 4-9 % on point-read, up to 14 % on analytic-remote and
// txn-durable and up to 16 % on mixed-replicated, where a writer, a reader
// and a follower share two cores. README.md has the table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "txn_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "txns_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	pointRead = "point-read"
	analytic  = "analytic-remote"
	txnDur    = "txn-durable"
	mixedRepl = "mixed-replicated"
)

// perLayer are the metrics of single modules: timings from the traced run
// (the benchmark wraps the module's exported calls), ratios from counter
// deltas over the untraced window. Moves/On is the prediction; on every
// other workload the prediction is "no change".
var perLayer = []metricDef{
	// Query front end: does the work on point-read, ~0 share on analytic-remote.
	{Name: "parser.parse_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "query.bind_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "plan.optimize_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "exec.compile_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "sim.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "read_ops_s", On: pointRead},
	// Executor: does the work on analytic-remote.
	{Name: "exec.run_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.instances_per_row", Unit: "ratio", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.rows_per_s", Unit: "1/s", Better: "higher", Moves: "read_ops_s", On: analytic},
	{Name: "exec.q-scan_ms", Unit: "ms", Better: "lower", Moves: "read_ops_s", On: analytic},
	{Name: "exec.q-advisor-join_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.q-count-advisees_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.q-pivot-title_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.q-title-range_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.q-credits-agg_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "exec.q-prereq-closure_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: analytic},
	// Session layer (package sim).
	{Name: "sim.query_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "sim.query_self_ns", Unit: "ns", Better: "lower", Moves: "read_ops_s", On: pointRead},
	{Name: "sim.stage_coverage", Unit: "ratio", Better: "higher", Moves: "read_p50_us", On: pointRead},
	{Name: "sim.allocs_per_op", Unit: "count", Better: "lower", Moves: "read_ops_s", On: pointRead},
	{Name: "sim.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "read_ops_s", On: pointRead},
	{Name: "sim.tx_begin_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "sim.tx_exec_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "sim.tx_commit_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "sim.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "read_p50_us", On: pointRead},
	// End-to-end by nature, kept off the bounded list (see endToEnd).
	{Name: "sim.fail_share", Unit: "ratio", Better: "lower", Moves: "txns_s", On: txnDur},
	{Name: "sim.write_amp", Unit: "ratio", Better: "lower", Moves: "txns_s", On: txnDur},
	{Name: "sim.read_p99_us", Unit: "us", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	{Name: "sim.txn_p99_us", Unit: "us", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	// LUC mapper.
	{Name: "luc.lookup_unique_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "luc.read_batch_ns_per_rec", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "luc.get_eva_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "luc.index_scan_ns_per_key", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "luc.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "read_p50_us", On: pointRead},
	// B+tree.
	{Name: "btree.get_ns", Unit: "ns", Better: "lower", Moves: "read_ops_s", On: analytic},
	{Name: "btree.seek_next_ns_per_key", Unit: "ns", Better: "lower", Moves: "read_ops_s", On: analytic},
	{Name: "btree.put_ns", Unit: "ns", Better: "lower", Moves: "txns_s", On: txnDur},
	{Name: "btree.pages_per_get", Unit: "ratio", Better: "lower", Moves: "read_ops_s", On: analytic},
	// Pager and MVCC versions.
	{Name: "pager.hit_ratio", Unit: "ratio", Better: "higher", Moves: "read_p50_us", On: analytic},
	{Name: "pager.misses_per_op", Unit: "ratio", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "pager.get_hit_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: pointRead},
	{Name: "pager.get_miss_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "pager.page_writes_per_commit", Unit: "ratio", Better: "lower", Moves: "txns_s", On: txnDur},
	{Name: "pager.live_versions_max", Unit: "count", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	// WAL.
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", Moves: "txns_s", On: txnDur},
	{Name: "wal.group_max", Unit: "count", Better: "higher", Moves: "txns_s", On: txnDur},
	{Name: "wal.commit_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "wal.fsync_floor_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	// Substrate store.
	{Name: "dmsii.commit_ns", Unit: "ns", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "dmsii.checkpoints", Unit: "count", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "dmsii.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "dmsii.max_op_ms", Unit: "ms", Better: "lower", Moves: "txn_p50_us", On: txnDur},
	{Name: "dmsii.conflicts", Unit: "count", Better: "lower", Moves: "txns_s", On: txnDur},
	// Wire, server, client.
	{Name: "wire.encode_result_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "wire.decode_result_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "wire.result_bytes_per_row", Unit: "B", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "wire.frame_rw_ns", Unit: "ns", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "server.overhead_us", Unit: "us", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "server.bytes_out_per_op", Unit: "B", Better: "lower", Moves: "read_p50_us", On: analytic},
	{Name: "client.query_us", Unit: "us", Better: "lower", Moves: "read_p50_us", On: analytic},
	// Replication.
	{Name: "repl.apply_group_us", Unit: "us", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	{Name: "repl.publish_overhead_us", Unit: "us", Better: "lower", Moves: "txn_p50_us", On: mixedRepl},
	{Name: "repl.staleness_p50_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	{Name: "repl.staleness_p99_ms", Unit: "ms", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	{Name: "repl.lag_groups_max", Unit: "count", Better: "lower", Moves: "read_p50_us", On: mixedRepl},
	{Name: "repl.catchup_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: mixedRepl},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

var (
	endToEndDefs = defsByName(endToEnd)
	perLayerDefs = defsByName(perLayer)
)

// sample is one reported value with the number of measurements behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// gateResult is one correctness gate.
type gateResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// templateRow is the actual cardinality of one analytic template on the
// workload's dataset: the baseline a cost model is to be judged against.
type templateRow struct {
	Template  string  `json:"template"`
	Ms        float64 `json:"ms"`
	Instances int     `json:"instances"`
	Rows      int     `json:"rows"`
}

// classStat is the window's latency of one operation class.
type classStat struct {
	N      int     `json:"n"`
	P50us  float64 `json:"p50_us"`
	TailUs float64 `json:"tail_us"` // the 99th percentile, or tailRank's
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	WindowS   float64              `json:"window_s"`
	WarmupS   float64              `json:"warmup_s"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string]sample    `json:"end_to_end"`
	PerLayer  map[string]sample    `json:"per_layer"`
	TailPct   map[string]float64   `json:"tail_percentile"` // percentile the *_p99 metrics really are
	Classes   map[string]classStat `json:"classes"`         // latency per operation class over the window
	Templates []templateRow        `json:"templates,omitempty"`
	Gates     []gateResult         `json:"gates"`
	Errors    []string             `json:"errors,omitempty"`
	Machine   machine              `json:"machine"`

	// dirtyPages is the window's mean page images per commit, which sizes
	// the commit probes.
	dirtyPages int
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.w.Name, Seed: cfg.seed, Traced: cfg.trace,
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(),
		Correct:  true,
		EndToEnd: map[string]sample{}, PerLayer: map[string]sample{}, TailPct: map[string]float64{},
		Machine: describeMachine(),
	}
}

func (r *result) put(into map[string]sample, defs map[string]metricDef, name string, v float64, n int) {
	def, ok := defs[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := into[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.gate("finite "+name, fmt.Errorf("value is %v", v))
		v = 0
	}
	into[name] = sample{Value: v, Unit: def.Unit, N: n}
}

func (r *result) e2e(name string, v float64, n int) {
	r.put(r.EndToEnd, endToEndDefs, name, v, n)
}
func (r *result) layer(name string, v float64, n int) {
	r.put(r.PerLayer, perLayerDefs, name, v, n)
}

// gate records a correctness gate; a failed gate makes the run incorrect.
func (r *result) gate(name string, err error) {
	g := gateResult{Name: name, OK: err == nil}
	if err != nil {
		g.Err = err.Error()
		r.Correct = false
	}
	r.Gates = append(r.Gates, g)
}

// driverLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func (r *result) driverLine() ([]byte, error) {
	defs, have := endToEnd, r.EndToEnd
	if r.Traced {
		defs, have = perLayer, r.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		s, ok := have[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = mv{s.Value, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// spec renders BENCHMARK.json from the tables above.
func spec(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	return json.MarshalIndent(out, "", "  ")
}
