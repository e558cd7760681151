// Package exec implements SIM's query and update execution engine: the
// DAPLEX-style nested-loop program of §4.5 over the query tree, expression
// evaluation under three-valued logic, aggregate functions, quantifiers,
// transitive closure, tabular and structured output, and the update
// statements of §4.8.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// Executor runs plans against a LUC mapper.
type Executor struct {
	m           *luc.Mapper
	cat         *catalog.Catalog
	constraints []*Constraint
	workers     int      // per-query parallelism cap (<=1 disables)
	met         *Metrics // nil until SetMetrics
	treeWalk    bool     // force the reference tree-walking evaluator

	// claim, when set, is invoked by the update statements after their
	// target entities are materialized and before anything is mutated, so
	// a transaction can take per-entity write latches while a conflict is
	// still side-effect-free (see WithClaim).
	claim func(cl *catalog.Class, surrs []value.Surrogate) error

	// scratchPool is shared by pointer across View clones so snapshot
	// executors reuse the same warmed scratches as the live one.
	scratchPool *sync.Pool // *scratch, reused across compiled executions
}

// Metrics are the executor's registry-owned counters. The registry hands
// back the same counters across schema rebuilds, so totals accumulate for
// the life of the database.
type Metrics struct {
	Queries   *obs.Counter // Retrieve executions
	Parallel  *obs.Counter // Retrieves that used the partitioned path
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
// the scratch pool, constraints, metrics and worker settings; only the
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

// WithClaim returns a shallow clone whose update statements call fn with
// their materialized target entities before mutating any of them. An
// error from fn (typically a write-latch conflict) fails the statement
// before it has side effects.
func (e *Executor) WithClaim(fn func(cl *catalog.Class, surrs []value.Surrogate) error) *Executor {
	v := *e
	v.claim = fn
	return &v
}

// SetConstraints installs the bound integrity assertions enforced on
// updates.
func (e *Executor) SetConstraints(cs []*Constraint) { e.constraints = cs }

// SetMetrics registers (or re-binds, after a schema rebuild) the
// executor's counters on r. Counting is a handful of atomic adds per
// statement, not per binding, so the untraced hot path is unaffected.
func (e *Executor) SetMetrics(r *obs.Registry) {
	e.met = &Metrics{
		Queries:   r.Counter("sim_exec_queries_total", "Retrieve statements executed."),
		Parallel:  r.Counter("sim_exec_parallel_queries_total", "Retrieves that ran the partitioned parallel path."),
		Instances: r.Counter("sim_exec_instances_total", "Range-variable bindings tried (query-tree loop iterations)."),
		Rows:      r.Counter("sim_exec_rows_total", "Rows emitted by Retrieve statements."),
		Updates:   r.Counter("sim_exec_updates_total", "Update statements (Insert/Modify/Delete) executed."),
		Entities:  r.Counter("sim_exec_entities_updated_total", "Entities inserted, modified or deleted."),
	}
}

// SetWorkers caps the number of goroutines one Retrieve may use to
// partition its outermost root domain. Values <= 1 force serial execution.
// Must be set before queries run; it is not safe to change concurrently
// with them.
func (e *Executor) SetWorkers(n int) { e.workers = n }

// SetTreeWalk forces the reference tree-walking evaluator (eval.go)
// instead of compiled programs. The compiled path must produce
// byte-identical results; this switch exists for that comparison (the
// equality suite, the T13 baseline) and as an escape hatch. Must be set
// before queries run.
func (e *Executor) SetTreeWalk(b bool) { e.treeWalk = b }

// ctxErr reports the context's error without blocking; nil contexts and
// context.Background() cost one nil-channel check per call.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// inst is one binding of a range variable.
type inst struct {
	surr  value.Surrogate
	val   value.Value
	rec   luc.Rec // batched-read decoded record (compiled path; may be zero)
	null  bool    // outer-join dummy
	level int     // transitive-closure depth (1-based; 0 otherwise)
}

// env holds the current instance of every node, indexed by node id.
type env struct {
	insts []inst
	set   []bool
}

func newEnv(n int) *env {
	return &env{insts: make([]inst, n), set: make([]bool, n)}
}

func (v *env) bind(n *query.Node, i inst) {
	v.insts[n.ID] = i
	v.set[n.ID] = true
}

func (v *env) unbind(n *query.Node) { v.set[n.ID] = false }

func (v *env) get(n *query.Node) (inst, error) {
	if !v.set[n.ID] {
		return inst{}, fmt.Errorf("exec: range variable %q unbound", n.Label())
	}
	return v.insts[n.ID], nil
}

// Stats reports work done by one execution.
type Stats struct {
	Instances int // range-variable bindings tried
	Rows      int // rows emitted
}

// nestTrace accumulates one goroutine's per-main-node profile for EXPLAIN
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

// parallelRootThreshold is the minimum outermost-root domain size worth
// partitioning across workers; smaller domains run serially.
const parallelRootThreshold = 32

// Retrieve executes a planned query. When the executor has workers
// configured, the outermost root domain is large enough, and the output
// mode permits it, the domain is partitioned across a worker pool; results
// are merged back in domain order so parallel output is byte-identical to
// serial execution.
func (e *Executor) Retrieve(p *plan.Plan) (*Result, error) {
	return e.retrieve(context.Background(), p, nil)
}

// RetrieveCtx is Retrieve under a context: cancellation is checked
// between bindings of the outermost range, so a query over a large
// perspective stops within one outer row of the deadline.
func (e *Executor) RetrieveCtx(ctx context.Context, p *plan.Plan) (*Result, error) {
	return e.retrieve(ctx, p, nil)
}

// RetrieveTraced is RetrieveCtx with profiling: tr (non-nil) is filled
// with the per-node breakdown — bindings tried, entities bound, inclusive
// wall per node, per-worker spans on the parallel path. Tracing adds one
// time.Now pair per node visit; the untraced paths are unaffected.
func (e *Executor) RetrieveTraced(ctx context.Context, p *plan.Plan, tr *obs.QueryTrace) (*Result, error) {
	return e.retrieve(ctx, p, tr)
}

func (e *Executor) retrieve(ctx context.Context, p *plan.Plan, tr *obs.QueryTrace) (*Result, error) {
	if !e.treeWalk {
		if prog, err := e.Compile(p); err == nil {
			return e.runProgram(ctx, p, prog, nil, tr)
		}
		// A construct the compiler doesn't understand falls back to the
		// reference walker, which reproduces the behavior at run time.
	}
	return e.retrieveTree(ctx, p, tr)
}

func errOrderByStructure() error {
	return fmt.Errorf("ORDER BY applies to tabular output only")
}

// retrieveTree is the reference §4.5 implementation: a recursive
// tree-walk evaluating the query tree per binding. It is retained as the
// semantic oracle for the compiled path (run.go/compile.go) and as the
// fallback for anything the compiler rejects.
func (e *Executor) retrieveTree(ctx context.Context, p *plan.Plan, tr *obs.QueryTrace) (*Result, error) {
	t := p.Tree
	if t.Mode == ast.OutputStructure && len(t.OrderBy) > 0 {
		return nil, errOrderByStructure()
	}
	res := newResult(t)
	main := t.MainNodes()
	exist := t.ExistNodes()
	var stats Stats

	if len(main) == 0 {
		res.finish(t)
		res.Stats = stats
		e.countRetrieve(stats, false)
		return res, nil
	}

	var tm *nestTrace
	var execStart time.Time
	if tr != nil {
		tm = newNestTrace(len(main))
		execStart = time.Now()
	}

	// The outermost main node is a perspective root (MainNodes is
	// depth-first from the roots); compute its domain once, then decide
	// between the serial nest and the partitioned one.
	en := newEnv(len(t.Nodes))
	dom0, err := e.domain(p, t, main[0], en)
	if err != nil {
		return nil, err
	}
	if len(dom0) == 0 && main[0].Type == query.Type3 {
		// §4.5: "when empty, adding a dummy instance all of whose
		// attributes are null" — the directed outer join.
		dom0 = []inst{{null: true}}
	}

	parallel := e.parallelOK(t, dom0)
	if parallel {
		parts, err := e.retrieveParallel(ctx, p, t, main, exist, dom0, tm != nil)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			stats.Instances += part.stats.Instances
			stats.Rows += part.stats.Rows
			for ri := range part.rows {
				res.addTabular(part.rows[ri], part.order[ri])
			}
			if tm != nil {
				// Chunks run concurrently, so per-node walls merge as the
				// maximum across workers while bindings sum.
				for i := range tm.nanos {
					if part.tm.nanos[i] > tm.nanos[i] {
						tm.nanos[i] = part.tm.nanos[i]
					}
					tm.insts[i] += part.tm.insts[i]
					tm.ents[i] += part.tm.ents[i]
				}
				tr.WorkerSpans = append(tr.WorkerSpans, obs.WorkerTrace{
					Chunk:     int(part.tm.insts[0]),
					Instances: int64(part.stats.Instances),
					Rows:      part.stats.Rows,
					Wall:      part.wall,
				})
			}
		}
	} else {
		emit := e.emitter(t, en, main, res, &stats)
		done := ctx.Done()
		for _, it := range dom0 {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			stats.Instances++
			if tm != nil {
				tm.observe(0, it)
			}
			en.bind(main[0], it)
			if err := e.runNest(p, t, main, exist, en, 1, &stats, emit, tm); err != nil {
				return nil, err
			}
		}
	}
	if tm != nil {
		// The outermost node's inclusive wall covers its domain computation
		// and the whole nest under it (the slowest worker, on the parallel
		// path), so it approximates the execution span.
		tm.nanos[0] = time.Since(execStart).Nanoseconds()
	}
	res.finish(t)
	res.Stats = stats
	e.countRetrieve(stats, parallel)
	if tr != nil {
		e.fillTrace(tr, p, nil, t, main, tm, stats, parallel)
	}
	return res, nil
}

// countRetrieve feeds the registry counters after one Retrieve; a few
// atomic adds per statement.
func (e *Executor) countRetrieve(stats Stats, parallel bool) {
	if e.met == nil {
		return
	}
	e.met.Queries.Inc()
	e.met.Instances.Add(uint64(stats.Instances))
	e.met.Rows.Add(uint64(stats.Rows))
	if parallel {
		e.met.Parallel.Inc()
	}
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
func (e *Executor) fillTrace(tr *obs.QueryTrace, p *plan.Plan, params []value.Value, t *query.Tree, main []*query.Node, tm *nestTrace, stats Stats, parallel bool) {
	tr.Rows = stats.Rows
	tr.Instances = int64(stats.Instances)
	tr.Workers = 1
	if parallel {
		tr.Workers = len(tr.WorkerSpans)
	}
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

// emitter builds the row materializer for one environment: it evaluates
// the target and ORDER BY expressions and hands the row to the result.
func (e *Executor) emitter(t *query.Tree, en *env, main []*query.Node, res *Result, stats *Stats) func() error {
	return func() error {
		row := make([]value.Value, len(t.Targets))
		for i, tg := range t.Targets {
			v, err := e.eval(tg, en)
			if err != nil {
				return err
			}
			row[i] = v
		}
		var order []value.Value
		for _, ob := range t.OrderBy {
			v, err := e.eval(ob, en)
			if err != nil {
				return err
			}
			order = append(order, v)
		}
		stats.Rows++
		return res.add(e, t, en, main, row, order)
	}
}

// runNest runs the DAPLEX iteration of §4.5 from main-variable depth i
// down, calling emit for every combination that passes the selection. A
// non-nil tm collects the per-node profile (inclusive walls).
func (e *Executor) runNest(p *plan.Plan, t *query.Tree, main, exist []*query.Node, en *env, i int, stats *Stats, emit func() error, tm *nestTrace) error {
	if i == len(main) {
		ok, err := e.selectionHolds(t, en, exist)
		if err != nil {
			return err
		}
		if ok {
			return emit()
		}
		return nil
	}
	n := main[i]
	var start time.Time
	if tm != nil {
		start = time.Now()
	}
	dom, err := e.domain(p, t, n, en)
	if err != nil {
		return err
	}
	if len(dom) == 0 && n.Type == query.Type3 {
		dom = []inst{{null: true}}
	}
	for _, it := range dom {
		stats.Instances++
		if tm != nil {
			tm.observe(i, it)
		}
		en.bind(n, it)
		if err := e.runNest(p, t, main, exist, en, i+1, stats, emit, tm); err != nil {
			return err
		}
	}
	en.unbind(n)
	if tm != nil {
		tm.nanos[i] += time.Since(start).Nanoseconds()
	}
	return nil
}

// parallelOK reports whether this query may partition its outermost root.
// STRUCTURE mode builds its group tree from consecutive-prefix sharing and
// so is order-sensitive in a way the chunk merge cannot reproduce; tabular
// modes (including DISTINCT and ORDER BY, both applied during the ordered
// merge/finish) are safe.
func (e *Executor) parallelOK(t *query.Tree, dom0 []inst) bool {
	return e.workers > 1 && t.Mode != ast.OutputStructure && len(dom0) >= parallelRootThreshold
}

// partial is one worker's ordered slice of the result.
type partial struct {
	rows  [][]value.Value
	order [][]value.Value
	stats Stats
	tm    *nestTrace    // nil unless traced
	wall  time.Duration // chunk wall time (traced runs only)
}

// retrieveParallel splits the outermost domain into one contiguous chunk
// per worker and runs the remaining loop nest in each worker with a
// private environment. Chunks are returned in domain order.
func (e *Executor) retrieveParallel(ctx context.Context, p *plan.Plan, t *query.Tree, main, exist []*query.Node, dom0 []inst, traced bool) ([]*partial, error) {
	nw := e.workers
	if nw > len(dom0) {
		nw = len(dom0)
	}
	chunks := make([][]inst, 0, nw)
	per := (len(dom0) + nw - 1) / nw
	for lo := 0; lo < len(dom0); lo += per {
		hi := lo + per
		if hi > len(dom0) {
			hi = len(dom0)
		}
		chunks = append(chunks, dom0[lo:hi])
	}
	parts := make([]*partial, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			parts[ci], errs[ci] = e.runChunk(ctx, p, t, main, exist, chunks[ci], traced)
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// runChunk executes the loop nest for one slice of the outermost domain,
// checking cancellation between outer-range rows.
func (e *Executor) runChunk(ctx context.Context, p *plan.Plan, t *query.Tree, main, exist []*query.Node, chunk []inst, traced bool) (*partial, error) {
	en := newEnv(len(t.Nodes))
	part := &partial{}
	var chunkStart time.Time
	if traced {
		part.tm = newNestTrace(len(main))
		chunkStart = time.Now()
	}
	emit := func() error {
		row := make([]value.Value, len(t.Targets))
		for i, tg := range t.Targets {
			v, err := e.eval(tg, en)
			if err != nil {
				return err
			}
			row[i] = v
		}
		var order []value.Value
		for _, ob := range t.OrderBy {
			v, err := e.eval(ob, en)
			if err != nil {
				return err
			}
			order = append(order, v)
		}
		part.stats.Rows++
		part.rows = append(part.rows, row)
		part.order = append(part.order, order)
		return nil
	}
	done := ctx.Done()
	for _, it := range chunk {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		part.stats.Instances++
		if part.tm != nil {
			part.tm.observe(0, it)
		}
		en.bind(main[0], it)
		if err := e.runNest(p, t, main, exist, en, 1, &part.stats, emit, part.tm); err != nil {
			return nil, err
		}
	}
	if traced {
		part.wall = time.Since(chunkStart)
		part.tm.nanos[0] = part.wall.Nanoseconds()
	}
	return part, nil
}

// selectionHolds evaluates the WHERE clause under the existential
// semantics of §4.5: "for some X(m+1) … for some X(n) if <selection
// expression> is true".
func (e *Executor) selectionHolds(t *query.Tree, en *env, exist []*query.Node) (bool, error) {
	if t.Where == nil {
		return true, nil
	}
	var some func(j int) (bool, error)
	some = func(j int) (bool, error) {
		if j == len(exist) {
			tri, err := e.evalTri(t.Where, en)
			if err != nil {
				return false, err
			}
			return tri.IsTrue(), nil
		}
		n := exist[j]
		dom, err := e.domain(nil, t, n, en)
		if err != nil {
			return false, err
		}
		for _, it := range dom {
			en.bind(n, it)
			ok, err := some(j + 1)
			if err != nil {
				en.unbind(n)
				return false, err
			}
			if ok {
				en.unbind(n)
				return true, nil
			}
		}
		en.unbind(n)
		return false, nil
	}
	return some(0)
}

// domain enumerates the instances of node n given its parent's binding.
// The plan (may be nil for existential/subquery nodes) chooses root access
// paths.
func (e *Executor) domain(p *plan.Plan, t *query.Tree, n *query.Node, en *env) ([]inst, error) {
	if n.IsRoot() || (n.Sub && n.Parent == nil) {
		return e.rootDomain(p, t, n)
	}
	parent, err := en.get(n.Parent)
	if err != nil {
		return nil, err
	}
	if parent.null {
		return nil, nil
	}
	switch {
	case n.Edge.Kind == catalog.EVA && n.Transitive:
		return closureOver(e.m, parent.surr, n.Edge)
	case n.Edge.Kind == catalog.EVA:
		ss, err := e.m.GetEVA(parent.surr, n.Edge)
		if err != nil {
			return nil, err
		}
		out := make([]inst, len(ss))
		for i, s := range ss {
			out[i] = inst{surr: s}
		}
		return out, nil
	case n.Edge.Kind == catalog.Subrole:
		vals, err := e.m.Subrole(parent.surr, n.Edge)
		if err != nil {
			return nil, err
		}
		out := make([]inst, len(vals))
		for i, v := range vals {
			out[i] = inst{val: v}
		}
		return out, nil
	default: // MV DVA
		vals, err := e.m.GetMV(parent.surr, n.Edge)
		if err != nil {
			return nil, err
		}
		out := make([]inst, len(vals))
		for i, v := range vals {
			out[i] = inst{val: v}
		}
		return out, nil
	}
}

// rootDomain enumerates a perspective root using the planned access path.
func (e *Executor) rootDomain(p *plan.Plan, t *query.Tree, n *query.Node) ([]inst, error) {
	var access plan.RootAccess
	if p != nil {
		for i, r := range t.Roots {
			if r == n && i < len(p.Access) {
				access = p.Access[i]
			}
		}
	}
	switch a := access.(type) {
	case *plan.UniqueAccess:
		s, found, err := e.m.LookupUnique(a.Attr, a.Key)
		if err != nil || !found {
			return nil, err
		}
		return e.withRole([]value.Surrogate{s}, n.Class)
	case *plan.RangeAccess:
		ss, err := e.m.IndexScan(a.Attr, lucBound(a.Lo, nil), lucBound(a.Hi, nil))
		if err != nil {
			return nil, err
		}
		ss = sortSurrs(ss)
		return e.withRole(ss, n.Class)
	case *plan.PivotAccess:
		ss, err := pivotRootsOver(e.m, a, nil)
		if err != nil {
			return nil, err
		}
		return e.withRole(ss, n.Class)
	default:
		c, err := e.m.Scan(n.Class)
		if err != nil {
			return nil, err
		}
		var out []inst
		for ; c.Valid(); c.Next() {
			out = append(out, inst{surr: c.Surrogate()})
		}
		return out, c.Err()
	}
}

// lucBound resolves a planned bound for one execution (params nil: the
// bound's own literal value).
func lucBound(b plan.Bound, params []value.Value) luc.Bound {
	return luc.Bound{Set: b.Set, Inclusive: b.Inclusive, Value: query.Arg(params, b.Slot, b.Val)}
}

// withRole filters candidate surrogates to entities holding cl's role.
func (e *Executor) withRole(ss []value.Surrogate, cl *catalog.Class) ([]inst, error) {
	var out []inst
	for _, s := range ss {
		ok, err := e.m.HasRole(s, cl)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, inst{surr: s})
		}
	}
	return out, nil
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
