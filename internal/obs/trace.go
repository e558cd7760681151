package obs

import (
	"fmt"
	"strings"
	"time"
)

// NodeTrace is the measured execution profile of one query-tree range
// variable (one loop of the §4.5 DAPLEX nest). Wall is inclusive: the time
// spent enumerating this node's domain and running everything nested under
// it, so the outermost node's wall approximates the whole execution and
// nested nodes attribute their share.
type NodeTrace struct {
	Depth     int    // nesting depth in the main-variable list
	Label     string // printable qualification, e.g. "advisor of student"
	Type      string // "TYPE 1" / "TYPE 2" / "TYPE 3"
	Access    string // access-path description for perspective roots
	Instances int64  // range-variable bindings tried ("rows scanned")
	Entities  int64  // bindings that materialized an entity record
	Wall      time.Duration
}

// QueryTrace is the span breakdown of one traced query: the parse → plan →
// execute phases, the per-node profile, and the storage-cache deltas
// observed across the execution. Cache deltas are process-wide counters
// sampled before and after, so under concurrent load they include
// neighbors' traffic; on a quiet database they are exact.
type QueryTrace struct {
	Statement  string
	ID         uint64 // request/trace ID the query ran under, 0 when unset
	PlanCached bool   // plan came from the plan cache (parse/plan ≈ 0)
	Parse      time.Duration
	Plan       time.Duration
	Exec       time.Duration
	Total      time.Duration
	Rows       int   // rows returned
	Instances  int64 // total bindings tried across all nodes

	Nodes []NodeTrace

	PagerHits, PagerMisses uint64 // buffer pool delta over the query
	CacheHits, CacheMisses uint64 // LUC record cache delta over the query
	PlanDesc               string // optimizer strategy summary
}

// fmtDur renders a duration at µs precision, the scale of one node visit.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Render formats the trace as an annotated query tree followed by the
// phase and cache summary — the body of EXPLAIN ANALYZE.
func (t *QueryTrace) Render() string {
	var b strings.Builder
	if t.Statement != "" {
		fmt.Fprintf(&b, "%s\n", strings.TrimSpace(t.Statement))
	}
	for _, n := range t.Nodes {
		b.WriteString(strings.Repeat("  ", n.Depth))
		b.WriteString(n.Label)
		if n.Type != "" {
			fmt.Fprintf(&b, " (%s)", n.Type)
		}
		if n.Access != "" {
			fmt.Fprintf(&b, " via %s", n.Access)
		}
		fmt.Fprintf(&b, "  rows=%d", n.Instances)
		if n.Entities != n.Instances {
			fmt.Fprintf(&b, " entities=%d", n.Entities)
		}
		fmt.Fprintf(&b, " wall=%s\n", fmtDur(n.Wall))
	}
	plan := fmtDur(t.Plan)
	if t.PlanCached {
		plan += " (cached)"
	}
	fmt.Fprintf(&b, "parse %s  plan %s  exec %s  total %s\n",
		fmtDur(t.Parse), plan, fmtDur(t.Exec), fmtDur(t.Total))
	fmt.Fprintf(&b, "pager hits=%d misses=%d  luc-cache hits=%d misses=%d\n",
		t.PagerHits, t.PagerMisses, t.CacheHits, t.CacheMisses)
	fmt.Fprintf(&b, "rows: %d  instances: %d\n", t.Rows, t.Instances)
	if t.ID != 0 {
		fmt.Fprintf(&b, "request: %016x\n", t.ID)
	}
	return b.String()
}

// CommitTrace is the span breakdown of one committed write transaction:
// where the commit spent its time from the first latch acquisition to
// group-commit durability, plus where replication picked it up. One
// request ID names the same write in the slow-query ring, the flight
// recorder on both primary and follower, and this trace.
type CommitTrace struct {
	ID     uint64 // request/trace ID, 0 when the client did not send one
	Pages  int    // dirty pages this transaction contributed
	GroupN int    // transactions merged into the same flush group
	Pos    uint64 // replication position the group published at (0 = unreplicated)

	LatchWait   time.Duration // waiting for class latches + the store write latch
	EnqueueWait time.Duration // commit enqueue until the group leader picked it up
	Fsync       time.Duration // the leader's WAL write + fsync for the group
	Total       time.Duration // Commit() entry to durable return
}

// Render formats the commit trace — the body of client.TraceCommit.
func (ct *CommitTrace) Render() string {
	var b strings.Builder
	if ct.ID != 0 {
		fmt.Fprintf(&b, "commit request %016x\n", ct.ID)
	} else {
		b.WriteString("commit\n")
	}
	fmt.Fprintf(&b, "pages=%d group=%d", ct.Pages, ct.GroupN)
	if ct.Pos != 0 {
		fmt.Fprintf(&b, " repl-pos=%d", ct.Pos)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latch-wait %s  enqueue-wait %s  fsync %s  total %s\n",
		fmtDur(ct.LatchWait), fmtDur(ct.EnqueueWait), fmtDur(ct.Fsync), fmtDur(ct.Total))
	return b.String()
}
