// Package sim is a database management system based on the semantic data
// model of Jagannathan et al., "SIM: A Database System Based on the
// Semantic Data Model" (SIGMOD 1988).
//
// A SIM database is defined by a schema of classes and subclasses forming
// a generalization DAG, with data-valued and entity-valued attributes
// (EVAs carry system-maintained inverses), attribute options (REQUIRED,
// UNIQUE, MV, DISTINCT, MAX) and class-level VERIFY assertions. Data is
// manipulated through the English-like DML of the paper:
//
//	From Student Retrieve Name, Name of Advisor Where Student-Nbr = 1729.
//	Insert student (name := "John Doe", soc-sec-no := 456887766).
//	Modify instructor (salary := 1.1 * salary) Where count(courses-taught) > 2.
//	Delete student Where name = "John Doe".
//
// Open a database with Open (an empty path gives a transient in-memory
// database), define its schema with DefineSchema, then use Query for
// Retrieve statements and Exec for updates. Updates are transactional:
// a failed statement (type error, uniqueness or cardinality violation,
// failed VERIFY assertion) leaves the database unchanged.
package sim

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/exec"
	"sim/internal/integrity"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/pager"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
	"sim/internal/wal"
)

// Result is a query result: column names, tabular rows, and — for
// STRUCTURE-mode queries — the fully structured group tree.
type Result = exec.Result

// ExecStats reports executor activity totals, read from the metric
// registry.
type ExecStats struct {
	Queries   uint64 // Retrieve statements executed
	Instances uint64 // range-variable bindings tried
	Rows      uint64 // rows emitted
	Updates   uint64 // update statements executed
	Entities  uint64 // entities inserted/modified/deleted
}

// Stats aggregates engine counters for benchmarking and EXPLAIN: buffer
// pool, plan cache, LUC record cache, executor totals and WAL activity.
type Stats struct {
	Pool  pager.Stats
	Plans PlanCacheStats
	Cache luc.CacheStats
	Exec  ExecStats
	WAL   wal.Stats
}

// Config tunes a database instance. The zero value is a valid default
// configuration; Open validates the rest (see Validate).
type Config struct {
	// PoolPages is the buffer pool capacity in 4 KiB pages (default 1024).
	// Negative values are rejected by Validate.
	PoolPages int
	// Workers is ignored: every Retrieve runs the one serial loop nest.
	//
	// Deprecated: kept only because the benchmark module still sets it; a
	// later benchmark change removes that last use, and the field is
	// deleted then.
	Workers int
	// PlanCacheSize is the capacity, in entries, of the plan cache keyed
	// by statement shape — the DML text with its number and string
	// literals lifted out (0 means a default of 256; -1 disables caching;
	// other negative values are rejected by Validate).
	PlanCacheSize int
	// Mapping overrides the default physical mapping of §5.2; see
	// luc.Config. It must be identical across openings of one database.
	Mapping luc.Config
	// SlowQuery is the threshold above which finished queries are retained
	// in the slow-query log (see Database.SlowQueries). Zero disables the
	// log.
	SlowQuery time.Duration
}

// ConfigError reports an invalid Config field, by name.
type ConfigError struct {
	Field  string
	Value  int
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid Config.%s %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration. Open calls it, so invalid
// configurations fail loudly at open time (a *ConfigError naming the
// field) instead of being silently clamped. Sentinel values (zero for a
// default, PlanCacheSize -1 to disable caching) are valid and resolved in
// one place by normalize.
func (c Config) Validate() error {
	if c.PoolPages < 0 {
		return &ConfigError{Field: "PoolPages", Value: c.PoolPages, Reason: "must be >= 0 (0 means the default of 1024)"}
	}
	if c.PlanCacheSize < -1 {
		return &ConfigError{Field: "PlanCacheSize", Value: c.PlanCacheSize, Reason: "must be >= -1 (0 means the default of 256, -1 disables)"}
	}
	return nil
}

// normalize resolves the documented sentinels to effective values. Every
// component below this point sees concrete settings; no other layer
// interprets zero or negative configuration values.
func (c Config) normalize() Config {
	if c.PoolPages == 0 {
		c.PoolPages = 1024
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	return c
}

// Database is an open SIM database. Methods are safe for concurrent use:
// each query pins a read snapshot — the latest committed version stamp —
// and traverses copy-on-write page versions as of that stamp, so readers
// never take the store-wide write latch and never block (or are torn by)
// a writer's page mutations. Writers serialize on the store's write
// latch; commit durability (WAL fsync + write-back) happens outside it,
// so concurrent committers share fsyncs (group commit; see Begin and
// internal/dmsii). No statement takes a database-wide lock: the schema a
// statement runs under is a published generation (see generation).
//
// Context convention: every operation has a context-first form suffixed
// Ctx (QueryCtx, ExecCtx, ExplainCtx, RunCtx, QueryTraceCtx,
// ExplainAnalyzeCtx). The unsuffixed form is always exactly
// Xxx(args) = XxxCtx(context.Background(), args) — a documented one-line
// wrapper with no behavioral drift between the pair.
type Database struct {
	store *dmsii.Store
	cfg   Config
	gen   atomic.Pointer[generation] // the published schema generation

	planCounts planCounts // plan-cache hits and misses, across generations

	reg       *obs.Registry  // unified metric registry (see Metrics)
	slow      *obs.SlowLog   // queries over Config.SlowQuery
	queryHist *obs.Histogram // sim_query_seconds
	execHist  *obs.Histogram // sim_update_seconds
	queryErrs *obs.Counter   // sim_query_errors_total
	execErrs  *obs.Counter   // sim_update_errors_total
	slowCount *obs.Counter   // sim_slow_queries_total
}

// generation is one published state of the directory — the paper treats
// the schema as data (§6, ADDS) — and everything built from it: the DDL
// batches committed so far, their catalog, the live mapper and executor
// over it, and the plans compiled against them. A generation is immutable
// once published. The commit that persisted its batch publishes it once
// durable, just before that commit's stamp — DefineSchema's, or a
// follower's apply of a group or image carrying batches — and publication
// is monotonic in the batch count. Data written under a generation
// therefore commits after the generation was published, so a reader that
// loads the generation after pinning its read view never decodes a
// record with a catalog older than the record.
type generation struct {
	ddl    []string
	cat    *catalog.Catalog
	mapper *luc.Mapper
	exe    *exec.Executor
	plans  *planCache
}

// Open opens (creating if necessary) the database at path; an empty path
// opens a transient in-memory database. Any schema previously defined in
// the file is loaded. The configuration is validated first (see
// Config.Validate).
func Open(path string, cfg Config) (*Database, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	var store *dmsii.Store
	var err error
	opts := dmsii.Options{PoolPages: cfg.PoolPages}
	if path == "" {
		store, err = dmsii.OpenMemory(opts)
	} else {
		store, err = dmsii.OpenFile(path, opts)
	}
	if err != nil {
		return nil, err
	}
	return openStore(store, cfg)
}

// openStore assembles a Database over an already-open substrate store.
// The fault-injection harness uses it (via internal tests) to open
// databases over scripted storage; Open is the production path.
func openStore(store *dmsii.Store, cfg Config) (*Database, error) {
	if err := cfg.Validate(); err != nil {
		store.Close()
		return nil, err
	}
	cfg = cfg.normalize()
	db := &Database{
		store: store,
		cfg:   cfg,
		reg:   obs.NewRegistry(),
		slow:  obs.NewSlowLog(cfg.SlowQuery),
	}
	db.queryHist = db.reg.Histogram("sim_query_seconds", "End-to-end Retrieve latency (parse+plan+execute).")
	db.execHist = db.reg.Histogram("sim_update_seconds", "End-to-end update-statement latency, including commit.")
	db.queryErrs = db.reg.Counter("sim_query_errors_total", "Retrieve statements that returned an error.")
	db.execErrs = db.reg.Counter("sim_update_errors_total", "Update statements that returned an error, parse errors included.")
	db.slowCount = db.reg.Counter("sim_slow_queries_total", "Queries slower than the configured slow-query threshold.")
	store.RegisterMetrics(db.reg)
	db.registerMetrics()
	g, err := db.load()
	if err != nil {
		store.Close()
		return nil, err
	}
	db.gen.Store(g)
	// Every discard of uncommitted state — a rollback, the repair after a
	// failed commit group — runs under the write latch, and resets the live
	// mapper's surrogate counters and statistics with it.
	store.SetOnDiscard(func() { db.Mapper().ResetLiveState() })
	return db, nil
}

// Close checkpoints and closes the database. It fails if a transaction
// is still open; callers must finish queries and transactions first.
func (db *Database) Close() error {
	return db.store.Close()
}

// batchKey is the "~schema" key of the i-th DDL batch (0-based).
func batchKey(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }

// load builds the generation of the DDL batches in the live "~schema"
// structure plus ddl, which it stores as the next batch. The caller holds
// the write latch or owns the store outright.
func (db *Database) load(ddl ...string) (*generation, error) {
	st, err := db.store.Structure("~schema")
	if err != nil {
		return nil, err
	}
	c, err := st.First()
	if err != nil {
		return nil, err
	}
	var batches []string
	for ; c.Valid(); c.Next() {
		batches = append(batches, string(c.Value()))
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	g, err := db.build(append(batches, ddl...))
	if err != nil {
		return nil, err
	}
	for i, b := range ddl {
		if err := st.Put(batchKey(len(batches)+i), []byte(b)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// build constructs a generation — catalog, mapper, executor and an empty
// plan cache — from DDL batches. It publishes nothing.
func (db *Database) build(batches []string) (*generation, error) {
	cat := catalog.New()
	for i, ddl := range batches {
		sch, err := parser.ParseSchema(ddl)
		if err != nil {
			return nil, fmt.Errorf("sim: stored schema batch %d: %w", i, err)
		}
		if err := cat.Extend(sch); err != nil {
			return nil, fmt.Errorf("sim: stored schema batch %d: %w", i, err)
		}
	}
	mapper, err := luc.New(db.store, cat, db.cfg.Mapping)
	if err != nil {
		return nil, err
	}
	constraints, err := integrity.Analyze(cat)
	if err != nil {
		return nil, err
	}
	// Validate derived-attribute definitions by probing a binding of each
	// (their expressions are otherwise only checked at first reference).
	for _, cl := range cat.Classes() {
		for _, a := range cl.Attrs {
			if a.Kind != catalog.Derived || a.Owner != cl {
				continue
			}
			probe := &ast.Path{Steps: []ast.PathStep{{Name: a.Name}, {Name: cl.Name}}}
			if _, err := query.BindScalar(cat, cl, probe); err != nil {
				return nil, fmt.Errorf("derived attribute %s: %w", a, err)
			}
		}
	}
	exe := exec.New(mapper)
	if err := exe.SetConstraints(constraints); err != nil {
		return nil, err
	}
	// Owned counters come back identical across generations (totals keep
	// accumulating).
	exe.SetMetrics(db.reg)
	return &generation{ddl: batches, cat: cat, mapper: mapper, exe: exe, plans: newPlanCache(db.cfg.PlanCacheSize, &db.planCounts)}, nil
}

// publish makes g the generation new statements run under, unless one
// with as many batches is already published (definers racing past each
// other's commit).
func (db *Database) publish(g *generation) {
	for {
		cur := db.gen.Load()
		if len(cur.ddl) >= len(g.ddl) || db.gen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// DefineSchema parses and applies a DDL text (Type/Class/Subclass/Verify
// declarations). The schema may be extended incrementally across calls;
// each batch is validated against everything defined before it and
// persisted with the database. The new schema is published once the
// batch's commit is durable, before its stamp is; statements that started
// before keep the generation they loaded.
func (db *Database) DefineSchema(ddl string) error {
	// Under the write latch the live "~schema" structure holds every batch
	// committed before this one, so concurrent definers extend each other
	// under distinct keys.
	tx, err := db.store.Begin()
	if err != nil {
		return err
	}
	g, err := db.load(ddl)
	if err != nil {
		tx.Rollback()
		return err
	}
	tx.OnPublish(func() { db.publish(g) })
	return tx.Commit()
}

// Catalog exposes the published schema catalog for introspection.
func (db *Database) Catalog() *catalog.Catalog { return db.gen.Load().cat }

// Mapper exposes the published generation's live LUC Mapper (advanced
// use: statistics, direct scans).
func (db *Database) Mapper() *luc.Mapper { return db.gen.Load().mapper }

// registerMetrics publishes the counters that outlive a generation: the
// plan cache's, and the LUC record cache's of the published mapper.
func (db *Database) registerMetrics() {
	r := db.reg
	r.CounterFunc("sim_plan_cache_hits_total", "Queries served from a cached plan.",
		func() float64 { return float64(db.planStats().Hits) })
	r.CounterFunc("sim_plan_cache_misses_total", "Queries that paid parse+bind+optimize+compile.",
		func() float64 { return float64(db.planStats().Misses) })
	r.GaugeFunc("sim_plan_cache_entries", "Plan-cache entries (plans and shape records).",
		func() float64 { return float64(db.planStats().Entries) })
	r.CounterFunc("sim_luc_cache_hits_total", "LUC decoded-record cache hits.",
		func() float64 { return float64(db.Mapper().CacheStats().Hits) })
	r.CounterFunc("sim_luc_cache_misses_total", "LUC decoded-record cache misses.",
		func() float64 { return float64(db.Mapper().CacheStats().Misses) })
}

// Stats returns engine counters. It is safe to call while queries run.
func (db *Database) Stats() Stats {
	reg := db.reg
	return Stats{
		Pool:  db.store.Stats(),
		Plans: db.planStats(),
		Cache: db.Mapper().CacheStats(),
		WAL:   db.store.WALStats(),
		Exec: ExecStats{
			Queries:   uint64(reg.Get("sim_exec_queries_total")),
			Instances: uint64(reg.Get("sim_exec_instances_total")),
			Rows:      uint64(reg.Get("sim_exec_rows_total")),
			Updates:   uint64(reg.Get("sim_exec_updates_total")),
			Entities:  uint64(reg.Get("sim_exec_entities_updated_total")),
		},
	}
}

// ResetStats zeroes the activity counters, for benchmark phase
// boundaries: buffer pool hits/misses/writes, plan cache hits/misses
// (cached plans stay), the LUC record-cache hit/miss counters, every
// registry-owned counter and histogram (executor totals, query/update
// latency, latch wait histograms), and every component that registered an
// OnReset hook with the registry — latch contention counters and the
// replication publisher/follower activity totals (groups published and
// applied, snapshots, evictions, reconnects, staleness). WAL totals, the
// page-count gauge, replication positions/lag gauges and the slow-query
// log are cumulative and survive a reset.
func (db *Database) ResetStats() {
	db.store.ResetStats()
	db.planCounts.hits.Store(0)
	db.planCounts.misses.Store(0)
	db.Mapper().ResetCacheStats()
	db.reg.ResetCounters()
}

// Query is QueryCtx(context.Background(), dml).
func (db *Database) Query(dml string) (*Result, error) {
	return db.QueryCtx(context.Background(), dml)
}

// QueryCtx executes one Retrieve statement and returns its result.
// Statements of a shape already seen — the same text up to the values of
// its number and string literals — hit the plan cache and skip
// parse/bind/optimize/compile; the cache is invalidated whenever the
// schema changes. Cancellation or
// deadline expiry is observed between rows of the outermost range, so
// long scans stop promptly. The network server uses this for per-request
// deadlines.
func (db *Database) QueryCtx(ctx context.Context, dml string) (*Result, error) {
	start := time.Now()
	res, err := db.queryCtx(ctx, dml)
	return db.countQuery(ctx, dml, time.Since(start), res, err)
}

// countQuery records one finished Retrieve — its latency, its error or
// its slow-log entry — and returns its result (nil on error). Every
// Retrieve door (QueryCtx, Tx.Query, QueryTraceCtx) counts through here
// exactly once.
func (db *Database) countQuery(ctx context.Context, dml string, d time.Duration, res *Result, err error) (*Result, error) {
	db.queryHist.Observe(d)
	if err != nil {
		db.queryErrs.Inc()
		return nil, err
	}
	if db.slow.Observe(dml, d, res.Stats.Rows, obs.RequestID(ctx)) {
		db.slowCount.Inc()
	}
	return res, nil
}

func (db *Database) queryCtx(ctx context.Context, dml string) (*Result, error) {
	v, g, exe := db.readView()
	defer v.Release()
	return db.queryOn(ctx, dml, g, exe, nil)
}

// viewAttachment is what the database layer attaches to a read view: the
// executor the view's statements run on, and the generation it was built
// under.
type viewAttachment struct {
	of  *generation
	exe *exec.Executor
}

// readView pins the latest committed version stamp for a statement: it
// takes a reference on the store's current read view — released by the
// caller exactly once — and returns it with the published generation and
// the executor that reads the view under it. The statement traverses page
// versions as of the view's stamp, never blocking on — or being torn by —
// a concurrent transaction's write phase. Every read outside a
// transaction that has written starts here.
func (db *Database) readView() (*dmsii.View, *generation, *exec.Executor) {
	v := db.store.AcquireView()
	g := db.gen.Load() // after the pin: never older than the data it reads
	return v, g, g.viewExec(v)
}

// viewExec returns the executor reading v under g. It is built once per
// view and generation — a snapshot mapper and an executor over it — and
// attached to the view, so every statement at one published stamp shares
// it; a generation published since makes it rebuild.
func (g *generation) viewExec(v *dmsii.View) *exec.Executor {
	if a, ok := v.Attached().(*viewAttachment); ok && a.of == g {
		return a.exe
	}
	a := &viewAttachment{of: g, exe: g.exe.View(g.mapper.View(v))}
	v.Attach(a)
	return a.exe
}

// queryOn executes one Retrieve statement on the given executor — a
// pinned-snapshot view, a transaction's read view, or the live executor.
// The statement is normalised to its shape and looked up in the plan
// cache; a hit binds its literals as the cached program's parameter
// vector and runs it, a miss parses, plans and compiles the statement,
// caches the result for the shape and runs it on its own literals. The
// cache is shared across views: compiled programs read all data through
// the running executor's mapper, so one cached program serves every
// snapshot. The cache and the catalog are g's, the generation exe runs
// under. When tr is non-nil the parse, plan and execute spans are
// recorded and execution is traced.
func (db *Database) queryOn(ctx context.Context, dml string, g *generation, exe *exec.Executor, tr *obs.QueryTrace) (*Result, error) {
	st := g.plans.shapeOf(dml)
	defer g.plans.release(st)
	if en := g.plans.lookup(st); en != nil {
		if params, ok := en.bind(st); ok {
			g.plans.hit()
			if tr != nil {
				tr.PlanCached = true
			}
			return runPlan(ctx, exe, en.p, en.prog, params, tr)
		}
		// A literal that does not fit its slot's declared type: the cold
		// path reports it the way it always was.
	}
	g.plans.miss()
	parseStart := time.Now()
	stmt, err := parser.ParseStmt(dml)
	if err != nil {
		return nil, err
	}
	ret, isRet := stmt.(*ast.RetrieveStmt)
	if !isRet {
		return nil, fmt.Errorf("sim: Query wants a Retrieve statement; use Exec for updates")
	}
	if tr != nil {
		tr.Parse = time.Since(parseStart)
	}
	planStart := time.Now()
	p, err := planRetrieveOn(g.cat, ret, exe.Mapper())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Plan = time.Since(planStart)
	}
	prog, err := g.exe.Compile(p)
	if err != nil {
		return nil, err
	}
	g.plans.put(st, p, prog)
	return runPlan(ctx, exe, p, prog, nil, tr)
}

// runPlan executes a plan for the statement whose literals are params
// (nil: the statement the plan was made from), describing the plan in tr
// for that statement.
func runPlan(ctx context.Context, exe *exec.Executor, p *plan.Plan, prog *exec.Program, params []value.Value, tr *obs.QueryTrace) (*Result, error) {
	if tr == nil {
		return exe.RetrieveParams(ctx, p, prog, params, nil)
	}
	tr.PlanDesc = p.Explain(params)
	execStart := time.Now()
	res, err := exe.RetrieveParams(ctx, p, prog, params, tr)
	tr.Exec = time.Since(execStart)
	return res, err
}

// planRetrieveOn binds a parsed Retrieve against cat and optimizes it,
// reading optimizer statistics through the given mapper — a snapshot view
// when the caller reads a snapshot, so planning never touches live pages
// concurrently with a writer.
func planRetrieveOn(cat *catalog.Catalog, ret *ast.RetrieveStmt, m *luc.Mapper) (*plan.Plan, error) {
	tree, err := query.Bind(cat, ret)
	if err != nil {
		return nil, err
	}
	return plan.Optimize(tree, m)
}

// Explain is ExplainCtx(context.Background(), dml).
func (db *Database) Explain(dml string) (string, error) {
	return db.ExplainCtx(context.Background(), dml)
}

// ExplainCtx returns the optimizer's chosen strategy for a Retrieve
// statement without executing it.
func (db *Database) ExplainCtx(ctx context.Context, dml string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	stmt, err := parser.ParseStmt(dml)
	if err != nil {
		return "", err
	}
	ret, ok := stmt.(*ast.RetrieveStmt)
	if !ok {
		return "", fmt.Errorf("sim: Explain wants a Retrieve statement")
	}
	v, g, exe := db.readView()
	defer v.Release()
	p, err := planRetrieveOn(g.cat, ret, exe.Mapper())
	if err != nil {
		return "", err
	}
	return p.Explain(nil), nil
}

// Exec is ExecCtx(context.Background(), dml).
func (db *Database) Exec(dml string) (int, error) {
	return db.ExecCtx(context.Background(), dml)
}

// ExecCtx executes one update statement (Insert, Modify or Delete) as its
// own transaction and returns the number of affected entities. It is a
// one-statement transaction over the same machinery as Database.Begin —
// on any error the statement's effects are rolled back, and concurrent
// callers' commits share WAL fsyncs (group commit). Cancellation is
// observed between the entities an update selects; a cancelled statement
// rolls back like any other failed statement.
func (db *Database) ExecCtx(ctx context.Context, dml string) (int, error) {
	start := time.Now()
	stmt, err := parser.ParseStmt(dml)
	n := 0
	if err == nil {
		n, err = db.execOne(ctx, stmt)
	}
	return db.countUpdate(time.Since(start), n, err)
}

// countUpdate records one finished update statement — its latency and its
// error — and returns its result. Every update door (ExecCtx, Tx.Exec)
// counts through here exactly once, whatever it failed on.
func (db *Database) countUpdate(d time.Duration, n int, err error) (int, error) {
	db.execHist.Observe(d)
	if err != nil {
		db.execErrs.Inc()
	}
	return n, err
}

// execOne runs one parsed update statement as its own transaction. The
// autocommit flag skips the snapshot pin and the conflict check: the
// statement executes and commits without ever being open-idle, so it
// queues behind other writers instead of raising first-writer-wins
// conflicts.
func (db *Database) execOne(ctx context.Context, stmt ast.Stmt) (int, error) {
	tx, err := db.begin(ctx, true)
	if err != nil {
		return 0, err
	}
	n, err := tx.execStmt(ctx, stmt)
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	return n, tx.Commit()
}

// Run is RunCtx(context.Background(), script).
func (db *Database) Run(script string) ([]*Result, error) {
	return db.RunCtx(context.Background(), script)
}

// RunCtx executes a script of statements separated by '.' or ';'.
// Retrieve results are returned in order; updates and transaction-control
// statements contribute nil entries. Each statement goes through the
// same door as its single-statement form — QueryCtx, ExecCtx, Begin and
// the Tx methods — so it is planned, cached and counted the same way.
//
// By default each update statement is its own transaction, so when a
// statement fails the effects of the earlier statements persist — the
// error names the failed statement by its 1-based index, and everything
// before it has already committed. A script may instead group statements
// with BEGIN ... COMMIT (or ROLLBACK): inside such a block nothing
// persists unless the COMMIT executes, and a transaction still open when
// the script ends (normally or on error) is rolled back.
func (db *Database) RunCtx(ctx context.Context, script string) ([]*Result, error) {
	stmts, texts, err := parser.ParseStmts(script)
	if err != nil {
		return nil, err
	}
	var out []*Result
	var tx *Tx
	defer func() {
		if tx != nil {
			tx.Rollback() // transaction left open at script end
		}
	}()
	for i, s := range stmts {
		var r *Result
		var err error
		switch s.(type) {
		case *ast.BeginStmt:
			if tx != nil {
				err = fmt.Errorf("sim: BEGIN inside an open transaction")
				break
			}
			tx, err = db.Begin(ctx)
		case *ast.CommitStmt:
			if tx == nil {
				err = fmt.Errorf("sim: COMMIT outside a transaction")
				break
			}
			err = tx.Commit()
			tx = nil
		case *ast.RollbackStmt:
			if tx == nil {
				err = fmt.Errorf("sim: ROLLBACK outside a transaction")
				break
			}
			err = tx.Rollback()
			tx = nil
		case *ast.RetrieveStmt:
			// Inside a BEGIN block the Retrieve reads the transaction's
			// view: the Begin-time snapshot, or — once the block wrote —
			// its own uncommitted writes.
			if tx != nil {
				r, err = tx.Query(ctx, texts[i])
			} else {
				r, err = db.QueryCtx(ctx, texts[i])
			}
		default:
			if tx != nil {
				_, err = tx.Exec(ctx, texts[i])
			} else {
				_, err = db.ExecCtx(ctx, texts[i])
			}
		}
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// CheckIntegrity re-verifies every VERIFY assertion against every entity
// of its class, reporting the first violation.
func (db *Database) CheckIntegrity() error {
	v, _, exe := db.readView()
	defer v.Release()
	return exe.CheckAll()
}

// Checkpoint flushes committed data to the database file and starts a new
// cycle of the write-ahead log, which reuses the log file in place. It takes the substrate's write latch itself (waiting
// out any transaction in its write phase); queries keep running.
func (db *Database) Checkpoint() error {
	return db.store.Checkpoint()
}

// ScrubReport is the result of a physical + logical storage audit; see
// Database.Scrub.
type ScrubReport = dmsii.ScrubReport

// Scrub audits the database's storage: it checkpoints, re-reads every
// page of the database file verifying its CRC32 trailer, and
// cursor-scans every structure end to end. Corruption is reported with
// the damaged page ids, never silently served or repaired. Scrub
// requires a write-quiescent database: it fails if a transaction is open,
// and callers must not run updates concurrently with the audit.
func (db *Database) Scrub() (ScrubReport, error) {
	rep, err := db.store.Scrub()
	if err != nil || !rep.OK() {
		// A failed audit is exactly the incident the flight recorder exists
		// for: record it so the auto-dump (simdb \verify, crash matrix)
		// carries the recent history alongside the failure.
		note := ""
		if err != nil {
			note = err.Error()
		} else if len(rep.Errors) > 0 {
			note = rep.Errors[0]
		}
		db.reg.Flight().Component("store").Event("store", "scrub-fail", 0, 0, int64(len(rep.Corrupt)), note)
	}
	return rep, err
}

// SchemaSummary renders a one-line-per-class summary of the schema, with
// the counts the paper reports for ADDS (§6): base classes, subclasses,
// EVA-inverse pairs, DVAs and maximum generalization depth.
func (db *Database) SchemaSummary() string {
	var base, subs, dvas, pairs int
	maxDepth := 0
	seenPair := map[*catalog.Attribute]bool{}
	var depth func(c *catalog.Class) int
	depth = func(c *catalog.Class) int {
		d := 0
		for _, s := range c.Supers {
			if dd := depth(s) + 1; dd > d {
				d = dd
			}
		}
		return d
	}
	for _, cl := range db.Catalog().Classes() {
		if cl.IsBase() {
			base++
		} else {
			subs++
		}
		if d := depth(cl); d > maxDepth {
			maxDepth = d
		}
		for _, a := range cl.Attrs {
			switch a.Kind {
			case catalog.DVA:
				dvas++
			case catalog.EVA:
				if !a.Implicit && !seenPair[a] {
					seenPair[a] = true
					if a.Inverse != nil {
						seenPair[a.Inverse] = true
					}
					pairs++
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "base classes: %d\nsubclasses: %d\nEVA-inverse pairs: %d\nDVAs: %d\nmax generalization depth: %d\n", base, subs, pairs, dvas, maxDepth)
	return b.String()
}
