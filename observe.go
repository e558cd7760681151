package sim

import (
	"context"
	"time"

	"sim/internal/obs"
)

// Metrics returns the database's metric registry. Every engine component
// (buffer pool, WAL, LUC caches, plan cache, executor, query latency)
// registers here; servers expose it over /metrics and expvar.
func (db *Database) Metrics() *obs.Registry { return db.reg }

// SlowQueries returns the retained slow-query log, oldest first. Empty
// unless Config.SlowQuery is set.
func (db *Database) SlowQueries() []obs.SlowEntry { return db.slow.Entries() }

// FlightRecorder returns the database's always-on flight recorder: ring
// buffers of recent structured events (transaction begins/commits/
// conflicts, group-commit flushes, checkpoints, replication applies,
// incidents) that every component records into. Dump it on an incident.
func (db *Database) FlightRecorder() *obs.Flight { return db.reg.Flight() }

// HotReport renders the latch contention profile (\hot): acquisition and
// contention counts plus wait times for the store write latch, the
// buffer-pool shard locks and the WAL group-commit leader hand-off.
func (db *Database) HotReport() string { return obs.RenderHot(db.reg.Snapshot()) }

// QueryTrace executes one Retrieve statement like Query while collecting
// the full span breakdown: parse/plan/execute phases, per-query-tree-node
// rows and walls, and the pager/LUC-cache deltas across the execution.
func (db *Database) QueryTrace(dml string) (*Result, *obs.QueryTrace, error) {
	return db.QueryTraceCtx(context.Background(), dml)
}

// QueryTraceCtx is QueryTrace under a context. Tracing costs one
// time.Now pair per node visit; concurrent untraced queries are
// unaffected. The cache deltas are process-wide counters sampled before
// and after, so under concurrent load they include neighbors' traffic.
func (db *Database) QueryTraceCtx(ctx context.Context, dml string) (*Result, *obs.QueryTrace, error) {
	tr := &obs.QueryTrace{Statement: dml, ID: obs.RequestID(ctx)}
	start := time.Now()
	res, err := db.queryTraceCtx(ctx, dml, tr)
	tr.Total = time.Since(start)
	if res, err = db.countQuery(ctx, dml, tr.Total, res, err); err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

func (db *Database) queryTraceCtx(ctx context.Context, dml string, tr *obs.QueryTrace) (*Result, error) {
	poolBefore := db.store.Stats()
	// Traced queries read the same pinned-snapshot path as Query.
	v, g, exe := db.readView()
	defer v.Release()
	cacheBefore := g.mapper.CacheStats()
	res, err := db.queryOn(ctx, dml, g, exe, tr)
	if err != nil {
		return nil, err
	}
	poolAfter := db.store.Stats()
	cacheAfter := g.mapper.CacheStats()
	tr.PagerHits = poolAfter.Hits - poolBefore.Hits
	tr.PagerMisses = poolAfter.Misses - poolBefore.Misses
	tr.CacheHits = cacheAfter.Hits - cacheBefore.Hits
	tr.CacheMisses = cacheAfter.Misses - cacheBefore.Misses
	return res, nil
}

// ExplainAnalyze executes the statement and renders the optimizer's
// strategy annotated with measured row counts and per-node timings — the
// query tree of §4.5 with its actual cost.
func (db *Database) ExplainAnalyze(dml string) (string, error) {
	return db.ExplainAnalyzeCtx(context.Background(), dml)
}

// ExplainAnalyzeCtx is ExplainAnalyze under a context.
func (db *Database) ExplainAnalyzeCtx(ctx context.Context, dml string) (string, error) {
	_, tr, err := db.QueryTraceCtx(ctx, dml)
	if err != nil {
		return "", err
	}
	return tr.Render(), nil
}
