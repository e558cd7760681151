package sim

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sim/internal/obs"
)

// TestQueryTraceMatchesQuery runs the same statement through Query and
// QueryTrace and checks that the traced path returns identical rows and
// that the per-node profile agrees with the actual result.
func TestQueryTraceMatchesQuery(t *testing.T) {
	db := universityDB(t, Config{})

	const q = `From student Retrieve name, name of advisor.`
	plain := mustQuery(t, db, q)
	traced, tr, err := db.QueryTrace(q)
	if err != nil {
		t.Fatalf("QueryTrace: %v", err)
	}
	expectRows(t, traced, rowStrings(plain))

	if tr.Rows != traced.NumRows() {
		t.Errorf("trace Rows = %d, result has %d", tr.Rows, traced.NumRows())
	}
	if len(tr.Nodes) == 0 {
		t.Fatal("trace has no query-tree nodes")
	}
	// The outermost node enumerates the student extent: 4 students plus
	// the teaching assistant (a Student subrole).
	ext := mustQuery(t, db, `From student Retrieve name.`)
	if got, want := tr.Nodes[0].Instances, int64(ext.NumRows()); got != want {
		t.Errorf("root node instances = %d, student extent has %d", got, want)
	}
	if tr.Statement != q {
		t.Errorf("Statement = %q", tr.Statement)
	}
}

// TestQueryTraceNestedCounts checks the profile of a two-level query:
// the inner node's instance count is the total number of enrollments
// enumerated across all outer instances.
func TestQueryTraceNestedCounts(t *testing.T) {
	db := universityDB(t, Config{})

	res, tr, err := db.QueryTrace(`From student Retrieve name, title of courses-enrolled.`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != res.NumRows() {
		t.Errorf("trace Rows = %d, result has %d", tr.Rows, res.NumRows())
	}
	if len(tr.Nodes) < 1 {
		t.Fatalf("nodes = %+v", tr.Nodes)
	}
	if tr.Instances < tr.Nodes[0].Instances {
		t.Errorf("total instances %d < root instances %d", tr.Instances, tr.Nodes[0].Instances)
	}
}

// TestQueryTraceTimings checks the span accounting invariants: phases
// nest inside the total, and the root node's inclusive wall is bounded
// by the execute phase.
func TestQueryTraceTimings(t *testing.T) {
	db := universityDB(t, Config{})

	_, tr, err := db.QueryTrace(`From student Retrieve name, name of advisor.`)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 5 * time.Millisecond
	if sum := tr.Parse + tr.Plan + tr.Exec; sum > tr.Total+tol {
		t.Errorf("parse %v + plan %v + exec %v > total %v", tr.Parse, tr.Plan, tr.Exec, tr.Total)
	}
	if tr.Exec <= 0 {
		t.Errorf("exec span = %v, want > 0", tr.Exec)
	}
	if len(tr.Nodes) > 0 && tr.Nodes[0].Wall > tr.Exec+tol {
		t.Errorf("root node wall %v exceeds exec span %v", tr.Nodes[0].Wall, tr.Exec)
	}
}

// TestQueryTracePlanCache checks that a repeated statement is marked as
// plan-cached with no parse/plan spans.
func TestQueryTracePlanCache(t *testing.T) {
	db := universityDB(t, Config{})

	const q = `From department Retrieve name.`
	_, first, err := db.QueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached {
		t.Error("first execution reported a cached plan")
	}
	if first.Parse <= 0 || first.Plan <= 0 {
		t.Errorf("first execution spans: parse %v plan %v, want > 0", first.Parse, first.Plan)
	}
	_, second, err := db.QueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached {
		t.Error("second execution did not hit the plan cache")
	}
	if second.Parse != 0 || second.Plan != 0 {
		t.Errorf("cached execution spans: parse %v plan %v, want 0", second.Parse, second.Plan)
	}
}

// TestExplainAnalyzeOutput checks the rendered tree: per-node rows,
// span summary, cache deltas, and the statement itself.
func TestExplainAnalyzeOutput(t *testing.T) {
	db := universityDB(t, Config{})

	out, err := db.ExplainAnalyze(`From student Retrieve name, name of advisor.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rows=", "wall=", "parse ", "exec ", "total ", "pager hits=", "luc-cache hits="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
}

// TestQueryTraceRejectsUpdates checks that the trace path only accepts
// Retrieve statements and counts errors like the plain query path.
func TestQueryTraceRejectsUpdates(t *testing.T) {
	db := universityDB(t, Config{})

	if _, _, err := db.QueryTrace(`Insert department (dept-nbr := 900, name := "X").`); err == nil {
		t.Error("QueryTrace accepted an update statement")
	}
	if _, err := db.ExplainAnalyze(`From nowhere Retrieve x.`); err == nil {
		t.Error("ExplainAnalyze accepted a bad statement")
	}
	if got := db.Metrics().Get("sim_query_errors_total"); got < 2 {
		t.Errorf("sim_query_errors_total = %v, want >= 2", got)
	}
}

// TestStatsAndResetScope checks the rebuilt Stats surface and the
// documented ResetStats scope: pool, plan-cache, LUC-cache and executor
// counters reset; WAL totals survive.
func TestStatsAndResetScope(t *testing.T) {
	db := universityDB(t, Config{})

	const q = `From student Retrieve name.`
	mustQuery(t, db, q)
	mustQuery(t, db, q)

	st := db.Stats()
	if st.Exec.Queries == 0 {
		t.Error("Exec.Queries = 0 after queries")
	}
	if st.Exec.Rows == 0 || st.Exec.Instances == 0 {
		t.Errorf("Exec rows/instances = %d/%d, want > 0", st.Exec.Rows, st.Exec.Instances)
	}
	if st.Exec.Updates == 0 || st.Exec.Entities == 0 {
		t.Errorf("Exec updates/entities = %d/%d after fixture inserts, want > 0",
			st.Exec.Updates, st.Exec.Entities)
	}
	if st.Plans.Hits == 0 {
		t.Error("plan cache hits = 0 after a repeated statement")
	}

	db.ResetStats()
	st = db.Stats()
	if st.Exec.Queries != 0 || st.Exec.Rows != 0 || st.Exec.Updates != 0 {
		t.Errorf("exec counters after ResetStats: %+v", st.Exec)
	}
	if st.Plans.Hits != 0 || st.Plans.Misses != 0 {
		t.Errorf("plan cache counters after ResetStats: %+v", st.Plans)
	}
	if st.Pool.Hits != 0 || st.Pool.Misses != 0 {
		t.Errorf("pool counters after ResetStats: %+v", st.Pool)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("LUC cache counters after ResetStats: %+v", st.Cache)
	}

	// Counters resume from zero.
	mustQuery(t, db, q)
	if st := db.Stats(); st.Exec.Queries != 1 {
		t.Errorf("Exec.Queries after reset + one query = %d, want 1", st.Exec.Queries)
	}
}

// TestWALStatsSurvivesReset checks the durability counters on a
// file-backed database: they are lifetime facts, so ResetStats leaves
// them alone.
func TestWALStatsSurvivesReset(t *testing.T) {
	db, err := Open(t.TempDir()+"/u.db", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(`Class Widget ( wname: string[10] required );`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`Insert widget (wname := "gear").`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WAL.Commits == 0 {
		t.Fatal("WAL commits = 0 after an insert on a file-backed store")
	}
	db.ResetStats()
	if got := db.Stats().WAL.Commits; got != st.WAL.Commits {
		t.Errorf("WAL commits after ResetStats = %d, want %d (lifetime total)", got, st.WAL.Commits)
	}
	var b strings.Builder
	db.Metrics().WritePrometheus(&b)
	if !strings.Contains(b.String(), "sim_wal_commits_total") {
		t.Error("/metrics output missing sim_wal_commits_total on a file-backed store")
	}
}

// TestSlowQueryLog checks that Config.SlowQuery retains slow statements
// and bumps the counter, and that the log is off by default.
func TestSlowQueryLog(t *testing.T) {
	db := universityDB(t, Config{SlowQuery: time.Nanosecond})

	const q = `From student Retrieve name, name of advisor.`
	mustQuery(t, db, q)
	entries := db.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-query entries with a 1ns threshold")
	}
	last := entries[len(entries)-1]
	if last.Statement != q {
		t.Errorf("slow entry statement = %q", last.Statement)
	}
	if last.Duration <= 0 || last.When.IsZero() {
		t.Errorf("slow entry not filled in: %+v", last)
	}
	if got := db.Metrics().Get("sim_slow_queries_total"); got < 1 {
		t.Errorf("sim_slow_queries_total = %v, want >= 1", got)
	}

	off := universityDB(t, Config{})
	mustQuery(t, off, q)
	if n := len(off.SlowQueries()); n != 0 {
		t.Errorf("slow log has %d entries with no threshold configured", n)
	}
}

// TestSlowQueryRequestID checks that a request ID carried by the query's
// context is retained in the slow-query ring, so a slow statement can be
// correlated with its wire request and flight-recorder events.
func TestSlowQueryRequestID(t *testing.T) {
	db := universityDB(t, Config{SlowQuery: time.Nanosecond})
	const q = `From student Retrieve name.`
	ctx := obs.WithRequestID(context.Background(), 0xfeed)
	if _, err := db.QueryCtx(ctx, q); err != nil {
		t.Fatal(err)
	}
	entries := db.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-query entries with a 1ns threshold")
	}
	if got := entries[len(entries)-1].ID; got != 0xfeed {
		t.Errorf("slow entry ID = %x, want feed", got)
	}
}

// TestMetricsPrometheus scrapes the registry and checks the exposition
// format and the presence of every engine metric family.
func TestMetricsPrometheus(t *testing.T) {
	db := universityDB(t, Config{})
	mustQuery(t, db, `From student Retrieve name.`)

	var b strings.Builder
	db.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, family := range []string{
		"sim_pager_hits_total",
		"sim_pager_pages",
		"sim_pager_buffers_reused_total",
		"sim_pager_buffers_allocated_total",
		"sim_luc_cache_hits_total",
		"sim_read_views_built_total",
		"sim_plan_cache_misses_total",
		"sim_exec_queries_total",
		"sim_exec_rows_total",
		"sim_query_seconds_bucket",
		"sim_query_seconds_count",
		"sim_slow_queries_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics output missing %s", family)
		}
	}
	if !strings.Contains(out, "# TYPE sim_exec_queries_total counter") {
		t.Error("missing # TYPE line for sim_exec_queries_total")
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Error("histogram has no +Inf bucket")
	}
}

// TestTraceConcurrent races traced and untraced queries (plus the
// Prometheus scraper) over one database; run under -race this checks the
// tracing path adds no shared mutable state to plain queries.
func TestTraceConcurrent(t *testing.T) {
	db := universityDB(t, Config{})

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := db.Query(`From student Retrieve name.`); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, _, err := db.QueryTrace(`From student Retrieve name, name of advisor.`); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var b strings.Builder
			db.Metrics().WritePrometheus(&b)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
