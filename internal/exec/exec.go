// Package exec implements SIM's query and update execution engine: the
// DAPLEX-style nested-loop program of §4.5 over the query tree, expression
// evaluation under three-valued logic, aggregate functions, quantifiers,
// transitive closure, tabular and structured output, and the update
// statements of §4.8. Every expression the engine evaluates — Retrieve
// targets and selections, update selections, assignment right-hand sides
// and VERIFY assertions — runs as a compiled Program (compile.go, run.go).
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// Executor runs plans against a LUC mapper.
type Executor struct {
	m      *luc.Mapper
	cat    *catalog.Catalog
	checks []check  // installed VERIFY assertions, compiled
	met    *Metrics // nil until SetMetrics

	// scratchPool is shared by pointer across View clones so snapshot
	// executors reuse the same warmed scratches as the live one.
	scratchPool *sync.Pool // *scratch, reused across compiled executions
}

// Metrics are the executor's registry-owned counters. The registry hands
// back the same counters across schema rebuilds, so totals accumulate for
// the life of the database.
type Metrics struct {
	Queries   *obs.Counter // Retrieve executions
	Instances *obs.Counter // range-variable bindings tried
	Rows      *obs.Counter // rows emitted
	Updates   *obs.Counter // update statements executed
	Entities  *obs.Counter // entities inserted/modified/deleted
}

// New returns an executor. Constraints (bound VERIFY assertions) may be
// attached later with SetConstraints.
func New(m *luc.Mapper) *Executor {
	return &Executor{m: m, cat: m.Catalog(), scratchPool: new(sync.Pool)}
}

// View returns a shallow clone of the executor bound to m — typically a
// snapshot view of the live mapper (luc.Mapper.View). The clone shares
// the scratch pool, constraints and metrics; only the
// mapper differs, so queries run against the view's stamp. Compiled
// Programs cached from the live executor remain valid: their closures
// read data through the per-execution scratch's mapper, which getScratch
// binds to the executor that runs the program, not the one that compiled
// it.
func (e *Executor) View(m *luc.Mapper) *Executor {
	v := *e
	v.m = m
	return &v
}

// Mapper returns the mapper this executor reads and writes through.
func (e *Executor) Mapper() *luc.Mapper { return e.m }

// SetConstraints compiles the bound integrity assertions and installs
// them for enforcement on updates.
func (e *Executor) SetConstraints(cs []*Constraint) error {
	checks := make([]check, len(cs))
	for i, c := range cs {
		prog, err := e.compile(nil, c.Tree)
		if err != nil {
			return fmt.Errorf("verify %s: %w", c.Verify.Name, err)
		}
		checks[i] = check{c: c, prog: prog}
	}
	e.checks = checks
	return nil
}

// SetMetrics registers (or re-binds, after a schema rebuild) the
// executor's counters on r. Counting is a handful of atomic adds per
// statement, not per binding, so the untraced hot path is unaffected.
func (e *Executor) SetMetrics(r *obs.Registry) {
	e.met = &Metrics{
		Queries:   r.Counter("sim_exec_queries_total", "Retrieve statements executed."),
		Instances: r.Counter("sim_exec_instances_total", "Range-variable bindings tried (query-tree loop iterations)."),
		Rows:      r.Counter("sim_exec_rows_total", "Rows emitted by Retrieve statements."),
		Updates:   r.Counter("sim_exec_updates_total", "Update statements (Insert/Modify/Delete) executed."),
		Entities:  r.Counter("sim_exec_entities_updated_total", "Entities inserted, modified or deleted."),
	}
}

// SetWorkers does nothing: every Retrieve runs the one serial loop nest.
//
// Deprecated: kept only because the benchmark module still calls it; a
// later benchmark change removes that last call, and this method is
// deleted then.
func (e *Executor) SetWorkers(int) {}

// ctxErr reports the context's error; nil contexts and
// context.Background() cost one nil-channel check per call.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err()
}

// inst is one binding of a range variable.
type inst struct {
	surr  value.Surrogate
	val   value.Value
	rec   luc.Rec // batched-read decoded record (may be zero)
	null  bool    // outer-join dummy
	level int     // transitive-closure depth (1-based; 0 otherwise)
}

// Stats reports work done by one execution.
type Stats struct {
	Instances int // range-variable bindings tried
	Rows      int // rows emitted
}

// nestTrace accumulates one execution's per-main-node profile for EXPLAIN
// ANALYZE, indexed by position in the main-node list. Walls are inclusive:
// a node's bucket covers its own domain enumeration plus everything nested
// below it, so bucket 0 approximates the whole execution. A nil *nestTrace
// disables collection; the untraced hot path pays one nil check per
// binding.
type nestTrace struct {
	nanos []int64 // inclusive wall per node
	insts []int64 // bindings tried per node
	ents  []int64 // entity-valued (non-dummy) bindings per node
}

func newNestTrace(n int) *nestTrace {
	return &nestTrace{nanos: make([]int64, n), insts: make([]int64, n), ents: make([]int64, n)}
}

func (tm *nestTrace) observe(i int, it inst) {
	tm.insts[i]++
	if it.surr != 0 && !it.null {
		tm.ents[i]++
	}
}

func errOrderByStructure() error {
	return fmt.Errorf("ORDER BY applies to tabular output only")
}

// countRetrieve feeds the registry counters after one Retrieve; a few
// atomic adds per statement.
func (e *Executor) countRetrieve(stats Stats) {
	if e.met == nil {
		return
	}
	e.met.Queries.Inc()
	e.met.Instances.Add(uint64(stats.Instances))
	e.met.Rows.Add(uint64(stats.Rows))
}

// countUpdate feeds the update counters after one successful statement
// touching n entities.
func (e *Executor) countUpdate(n int) {
	if e.met == nil {
		return
	}
	e.met.Updates.Inc()
	e.met.Entities.Add(uint64(n))
}

// fillTrace converts the collected nest profile into the trace's node
// list. Only main nodes appear: TYPE 2 (selection-only) subtrees are
// enumerated inside the existential check per candidate row and are
// accounted to the enclosing node's wall.
func (e *Executor) fillTrace(tr *obs.QueryTrace, p *plan.Plan, params []value.Value, t *query.Tree, main []*query.Node, tm *nestTrace, stats Stats) {
	tr.Rows = stats.Rows
	tr.Instances = int64(stats.Instances)
	tr.Nodes = make([]obs.NodeTrace, len(main))
	for i, n := range main {
		tr.Nodes[i] = obs.NodeTrace{
			Depth:     nodeDepth(n),
			Label:     n.Label(),
			Type:      n.Type.String(),
			Access:    accessDesc(p, params, t, n),
			Instances: tm.insts[i],
			Entities:  tm.ents[i],
			Wall:      time.Duration(tm.nanos[i]),
		}
	}
}

func nodeDepth(n *query.Node) int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// accessDesc names the access path a node's domain enumeration uses: the
// planned root access for perspective roots, the edge kind otherwise.
func accessDesc(p *plan.Plan, params []value.Value, t *query.Tree, n *query.Node) string {
	if n.IsRoot() || (n.Sub && n.Parent == nil) {
		if p != nil {
			for i, r := range t.Roots {
				if r == n && i < len(p.Access) && p.Access[i] != nil {
					return p.Access[i].Describe(params)
				}
			}
		}
		return "scan " + strings.ToLower(n.Class.Name)
	}
	switch {
	case n.Edge.Kind == catalog.EVA && n.Transitive:
		return "closure over " + strings.ToLower(n.Edge.Name)
	case n.Edge.Kind == catalog.EVA:
		return "eva " + strings.ToLower(n.Edge.Name)
	case n.Edge.Kind == catalog.Subrole:
		return "subrole " + strings.ToLower(n.Edge.Name)
	default:
		return "mv-dva " + strings.ToLower(n.Edge.Name)
	}
}

// lucBound resolves a planned bound for one execution (params nil: the
// bound's own literal value).
func lucBound(b plan.Bound, params []value.Value) luc.Bound {
	return luc.Bound{Set: b.Set, Inclusive: b.Inclusive, Value: query.Arg(params, b.Slot, b.Val)}
}

// pivotRootsOver evaluates a pivot strategy: index scan on the start
// predicate, inverse-EVA walk up to the perspective, then a surrogate sort
// restoring perspective order (the charged reordering cost of §5.1). The
// mapper and the parameter vector are arguments because cached compiled
// programs pass the per-execution view's, not the compiling executor's.
func pivotRootsOver(m *luc.Mapper, a *plan.PivotAccess, params []value.Value) ([]value.Surrogate, error) {
	cur, err := m.IndexScan(a.Attr, lucBound(a.Lo, params), lucBound(a.Hi, params))
	if err != nil {
		return nil, err
	}
	for _, edge := range a.Up {
		next := make(map[value.Surrogate]bool)
		for _, s := range cur {
			partners, err := m.GetEVA(s, edge.Inverse)
			if err != nil {
				return nil, err
			}
			for _, p := range partners {
				next[p] = true
			}
		}
		cur = cur[:0]
		for s := range next {
			cur = append(cur, s)
		}
	}
	return sortSurrs(dedupeSurrs(cur)), nil
}

func dedupeSurrs(ss []value.Surrogate) []value.Surrogate {
	seen := make(map[value.Surrogate]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func sortSurrs(ss []value.Surrogate) []value.Surrogate {
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	return ss
}

// closureOver computes the transitive closure of edge from start (§4.7)
// in depth-first preorder with level numbers, cycle-safe. The mapper is a
// parameter for the same reason as pivotRootsOver.
func closureOver(m *luc.Mapper, start value.Surrogate, edge *catalog.Attribute) ([]inst, error) {
	seen := map[value.Surrogate]bool{start: true}
	var out []inst
	var visit func(s value.Surrogate, level int) error
	visit = func(s value.Surrogate, level int) error {
		targets, err := m.GetEVA(s, edge)
		if err != nil {
			return err
		}
		for _, t := range targets {
			if seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, inst{surr: t, level: level})
			if err := visit(t, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(start, 1); err != nil {
		return nil, err
	}
	return out, nil
}
