package main

import (
	"fmt"
)

// windowSummary merges the clients' tallies of one window.
type windowSummary struct {
	reads, txns        hist
	stale              []int64 // ascending
	byClass            map[string]*hist
	readOpsS, txnsS    float64
	attempted, failed  int64
	maxOp              int64
	dmlBytes, addBytes int64
	errs               []string
}

func summarize(tallies []*tally) windowSummary {
	w := windowSummary{byClass: map[string]*hist{}}
	for _, t := range tallies {
		w.reads.merge(&t.reads)
		w.txns.merge(&t.txns)
		w.stale = append(w.stale, t.stale...)
		for c, h := range t.byClass {
			if w.byClass[c] == nil {
				w.byClass[c] = &hist{}
			}
			w.byClass[c].merge(h)
		}
		// Each client's rate is over its own elapsed time: a closed-loop
		// client may finish its last operation after the deadline.
		w.readOpsS += ratio(float64(t.reads.n), t.elapsed.Seconds())
		w.txnsS += ratio(float64(t.txns.n), t.elapsed.Seconds())
		w.attempted += t.attempted
		w.failed += t.failed
		w.maxOp = max(w.maxOp, t.maxOp)
		w.dmlBytes += t.dmlBytes
		w.addBytes += t.addBytes
		w.errs = append(w.errs, t.errs...)
	}
	w.stale = sortedInts(w.stale)
	return w
}

// windowMetrics reports the end-to-end timings and the counter-delta
// ratios of the untraced window.
func (r *result) windowMetrics(cfg runConfig, e *env, w windowSummary, before, after counters,
	checkpoints int, liveMax int64, lagMax uint64) {

	// On a read-only workload every statement is a one-Retrieve autocommit
	// transaction, so the transaction metrics are the read metrics.
	txns, txnsS := &w.txns, w.txnsS
	if !e.writes() {
		txns, txnsS = &w.reads, w.readOpsS
	}
	r.e2e("read_p50_us", w.reads.median()/1e3, w.reads.n)
	r.e2e("read_ops_s", w.readOpsS, w.reads.n)
	r.e2e("txn_p50_us", txns.median()/1e3, txns.n)
	r.e2e("txns_s", txnsS, txns.n)
	v, pct := w.reads.tail()
	r.layer("sim.read_p99_us", v/1e3, w.reads.n)
	r.TailPct["sim.read_p99_us"] = pct
	v, pct = txns.tail()
	r.layer("sim.txn_p99_us", v/1e3, txns.n)
	r.TailPct["sim.txn_p99_us"] = pct
	r.layer("sim.fail_share", ratio(float64(w.failed), float64(w.attempted)), int(w.attempted))

	r.Classes = map[string]classStat{}
	for class, h := range w.byClass {
		t, _ := h.tail()
		r.Classes[class] = classStat{h.n, h.median() / 1e3, t / 1e3}
	}

	rd := func(f func(c counters) uint64) float64 { return float64(f(after) - f(before)) }
	ops := float64(w.attempted)
	hits := rd(func(c counters) uint64 { return c.read.Plans.Hits })
	misses := rd(func(c counters) uint64 { return c.read.Plans.Misses })
	r.layer("sim.plan_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	inst := rd(func(c counters) uint64 { return c.read.Exec.Instances })
	rows := rd(func(c counters) uint64 { return c.read.Exec.Rows })
	r.layer("exec.instances_per_row", ratio(inst, rows), int(rows))
	r.layer("exec.rows_per_s", ratio(rows, cfg.window.Seconds()), int(rows))
	ch := rd(func(c counters) uint64 { return c.read.Cache.Hits })
	cm := rd(func(c counters) uint64 { return c.read.Cache.Misses })
	r.layer("luc.cache_hit_ratio", ratio(ch, ch+cm), int(ch+cm))
	ph := rd(func(c counters) uint64 { return c.read.Pool.Hits })
	pm := rd(func(c counters) uint64 { return c.read.Pool.Misses })
	r.layer("pager.hit_ratio", ratio(ph, ph+pm), int(ph+pm))
	r.layer("pager.misses_per_op", ratio(pm, ops), int(ops))
	r.layer("pager.live_versions_max", float64(liveMax), 1)

	commits := rd(func(c counters) uint64 { return c.write.WAL.Commits })
	walBytes := rd(func(c counters) uint64 { return c.write.WAL.Bytes })
	pageWrites := rd(func(c counters) uint64 { return c.write.Pool.PageWrites })
	r.layer("pager.page_writes_per_commit", ratio(pageWrites, commits), int(commits))
	r.layer("wal.bytes_per_commit", ratio(walBytes, commits), int(commits))
	r.layer("wal.fsyncs_per_commit", ratio(rd(func(c counters) uint64 { return c.write.WAL.Syncs }), commits), int(commits))
	r.layer("wal.group_max", float64(after.write.WAL.GroupMax), 1)
	r.layer("sim.write_amp", ratio(walBytes+pageWrites*pageSize, float64(w.dmlBytes)), int(commits))
	r.layer("dmsii.checkpoints", float64(checkpoints), 1)
	r.layer("dmsii.max_op_ms", float64(w.maxOp)/1e6, int(w.attempted))
	r.layer("dmsii.conflicts", float64(after.conflicts-before.conflicts), 1)
	r.layer("server.bytes_out_per_op", ratio(float64(after.srvOut-before.srvOut), float64(after.srvReqs-before.srvReqs)),
		int(after.srvReqs-before.srvReqs))
	r.dirtyPages = int(ratio(rd(func(c counters) uint64 { return c.write.WAL.Pages }), commits) + 0.5)

	if e.w.replicated {
		v, pct := tail(w.stale)
		r.layer("repl.staleness_p50_ms", median(w.stale)/1e6, len(w.stale))
		r.layer("repl.staleness_p99_ms", v/1e6, len(w.stale))
		r.TailPct["repl.staleness_p99_ms"] = pct
		r.layer("repl.catchup_ms", float64(e.catchup)/1e6, 1)
		r.layer("repl.lag_groups_max", float64(lagMax), 1)
	}
}

// separation checks that the workload did stress the layers it was built
// to stress and bypassed the ones it was built to bypass; a workload that
// drifts from its design makes every "no change" prediction void.
func (r *result) separation() {
	get := func(name string) float64 { return r.PerLayer[name].Value }
	var err error
	switch r.Workload {
	case pointRead:
		if get("pager.misses_per_op") != 0 || get("wal.bytes_per_commit") != 0 || get("wal.fsyncs_per_commit") != 0 {
			err = fmt.Errorf("pager.misses_per_op=%v wal.bytes_per_commit=%v: the workload must not miss the pool nor write the WAL",
				get("pager.misses_per_op"), get("wal.bytes_per_commit"))
		}
	case analytic:
		if get("sim.plan_cache_hit_ratio") < 0.95 || get("pager.hit_ratio") >= 1 {
			err = fmt.Errorf("sim.plan_cache_hit_ratio=%v (want >= 0.95) pager.hit_ratio=%v (want < 1)",
				get("sim.plan_cache_hit_ratio"), get("pager.hit_ratio"))
		}
	case txnDur:
		if get("dmsii.checkpoints") < 3 || get("dmsii.conflicts") != 0 {
			err = fmt.Errorf("dmsii.checkpoints=%v (want >= 3) dmsii.conflicts=%v (want 0)",
				get("dmsii.checkpoints"), get("dmsii.conflicts"))
		}
	case mixedRepl:
		if get("dmsii.conflicts") != 0 {
			err = fmt.Errorf("dmsii.conflicts=%v (want 0)", get("dmsii.conflicts"))
		}
	}
	r.gate("layer separation", err)
}
