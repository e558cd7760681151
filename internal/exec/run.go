package exec

import (
	"context"
	"time"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// scratch is the reusable per-execution state of a compiled program: the
// binding environment (the current instance of every node, by node id), a
// free list of domain buffers, the subquery value stack, and the
// surrogate/record buffers batched reads go through. A
// scratch is checked out of the executor's pool per execution and holds
// no output: result rows live in a value.Arena owned by the Result, so
// recycling a scratch can never corrupt rows a caller still holds.
type scratch struct {
	insts []inst
	set   []bool
	// m is the mapper this execution reads data through. Compiled closures
	// capture the executor that compiled them, but programs are cached and
	// later run by snapshot-view executors with a different mapper; every
	// data access inside a closure therefore goes through sc.m, which
	// getScratch binds to the running executor's mapper. Compile-time
	// mapping decisions (hierarchy strategy, FK slots, MV layout) are
	// schema-derived and identical across views, so they may stay on the
	// compiling executor.
	m *luc.Mapper
	// params is the executing statement's literal vector (query.Lit.Slot
	// indexes it), or nil to run the program with the literals it was
	// compiled from. It is read-only.
	params  []value.Value
	sub     []value.Value     // subquery value stack (mark/truncate discipline)
	domFree [][]inst          // free domain buffers, stack-ordered
	surrs   []value.Surrogate // batched-read key buffer
	recs    []luc.Rec         // batched-read output buffer
}

// getScratch checks a scratch out of the pool, sized for n nodes and bound
// to the execution's parameter vector, with every binding cleared and no
// record references retained.
func (e *Executor) getScratch(n int, params []value.Value) *scratch {
	sc, _ := e.scratchPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if cap(sc.insts) < n {
		sc.insts = make([]inst, n)
		sc.set = make([]bool, n)
	} else {
		sc.insts = sc.insts[:n]
		sc.set = sc.set[:n]
		for i := range sc.insts {
			sc.insts[i] = inst{}
		}
		for i := range sc.set {
			sc.set[i] = false
		}
	}
	sc.sub = sc.sub[:0]
	sc.m = e.m
	sc.params = params
	return sc
}

func (e *Executor) putScratch(sc *scratch) {
	sc.m = nil
	sc.params = nil
	e.scratchPool.Put(sc)
}

func (sc *scratch) bind(n *query.Node, i inst) {
	sc.insts[n.ID] = i
	sc.set[n.ID] = true
}

func (sc *scratch) unbind(n *query.Node) { sc.set[n.ID] = false }

// getDomBuf hands out a reused []inst for one domain enumeration. Buffers
// follow stack discipline down the loop nest, so a handful cover any
// query depth after warm-up.
func (sc *scratch) getDomBuf() []inst {
	if n := len(sc.domFree); n > 0 {
		b := sc.domFree[n-1]
		sc.domFree = sc.domFree[:n-1]
		return b[:0]
	}
	return make([]inst, 0, 64)
}

// putDomBuf returns a domain buffer, zeroing it so pooled buffers don't
// pin decoded records between queries. Only the used prefix b[:len(b)]
// needs clearing: everything past len is already zero, because a buffer
// enters the free list zeroed, domain functions only append to it, and
// appendWithRole zeroes the tail it drops when it filters in place. The
// clear therefore costs what the domain returned, not the buffer's
// capacity — which matters once a scan-sized root buffer is recycled into
// an inner loop that returns one instance per outer row.
func (sc *scratch) putDomBuf(b []inst) {
	clear(b)
	sc.domFree = append(sc.domFree, b[:0])
}

// fillRecs prefetches the decoded records of a run of entity instances in
// fixed-size batches — one record-cache pass per batch instead of one
// probe per attribute reference. Split-strategy hierarchies are skipped;
// their bindings fall back to the Mapper's per-entity reads.
func (e *Executor) fillRecs(sc *scratch, cl *catalog.Class, insts []inst) error {
	if len(insts) == 0 || !sc.m.Batchable(cl) {
		return nil
	}
	bs := luc.RecBatch()
	for lo := 0; lo < len(insts); lo += bs {
		hi := min(lo+bs, len(insts))
		chunk := insts[lo:hi]
		sc.surrs = sc.surrs[:0]
		for i := range chunk {
			sc.surrs = append(sc.surrs, chunk[i].surr)
		}
		if cap(sc.recs) < len(chunk) {
			sc.recs = make([]luc.Rec, len(chunk))
		}
		recs := sc.recs[:len(chunk)]
		for i := range recs {
			recs[i] = luc.Rec{}
		}
		if err := sc.m.ReadBatch(cl, sc.surrs, recs); err != nil {
			return err
		}
		for i := range chunk {
			chunk[i].rec = recs[i]
		}
	}
	return nil
}

// RetrieveProgram executes a previously compiled program for the
// statement it was compiled from: every literal has its own bound value.
// Cancellation is checked between bindings of the outermost range. tr,
// when non-nil, is filled with the EXPLAIN ANALYZE profile — bindings
// tried, entities bound, inclusive wall per node.
func (e *Executor) RetrieveProgram(ctx context.Context, p *plan.Plan, prog *Program, tr *obs.QueryTrace) (*Result, error) {
	return e.RetrieveParams(ctx, p, prog, nil, tr)
}

// RetrieveParams is RetrieveProgram for any statement of the plan's shape:
// params[k-1] is the statement's value for the literal in slot k (see
// query.Lit), already coerced to the slot's declared type. The vector is
// only read, and not retained. Execution is one serial pass of the
// DAPLEX iteration of §4.5: bindings come from reused domain buffers,
// rows from a result-owned arena, and every expression evaluates through
// pre-lowered closures.
func (e *Executor) RetrieveParams(ctx context.Context, p *plan.Plan, prog *Program, params []value.Value, tr *obs.QueryTrace) (*Result, error) {
	t := prog.tree
	if t.Mode == ast.OutputStructure && len(t.OrderBy) > 0 {
		return nil, errOrderByStructure()
	}
	res := newResult(t)
	var stats Stats
	var tm *nestTrace
	if len(prog.main) > 0 {
		if tr != nil {
			tm = newNestTrace(len(prog.main))
		}
		sc := e.getScratch(prog.nNodes, params)
		emit := e.programEmitter(prog, sc, &value.Arena{}, res, &stats)
		err := e.runNestProgram(ctx, prog, sc, 0, &stats, emit, tm)
		e.putScratch(sc)
		if err != nil {
			return nil, err
		}
	}
	res.finish(t)
	res.Stats = stats
	e.countRetrieve(stats)
	if tm != nil {
		e.fillTrace(tr, p, params, t, prog.main, tm, stats)
	}
	return res, nil
}

// programEmitter materializes one accepted combination: targets and ORDER
// BY keys evaluate through the compiled closures into arena-backed rows.
func (e *Executor) programEmitter(prog *Program, sc *scratch, arena *value.Arena, res *Result, stats *Stats) func() error {
	t := prog.tree
	return func() error {
		row := arena.Alloc(len(prog.target))
		for i, fn := range prog.target {
			v, err := fn(sc)
			if err != nil {
				return err
			}
			row[i] = v
		}
		var order []value.Value
		if len(prog.orderBy) > 0 {
			order = arena.Alloc(len(prog.orderBy))
			for i, fn := range prog.orderBy {
				v, err := fn(sc)
				if err != nil {
					return err
				}
				order[i] = v
			}
		}
		stats.Rows++
		res.add(t, sc.insts, prog.main, row, order)
		return nil
	}
}

// runNestProgram runs the loop nest from main-variable depth i down,
// calling emit for every combination that passes the selection.
// Cancellation is checked between bindings of the outermost range. A
// non-nil tm collects the per-node profile (inclusive walls, so the
// outermost node's approximates the execution span).
func (e *Executor) runNestProgram(ctx context.Context, prog *Program, sc *scratch, i int, stats *Stats, emit func() error, tm *nestTrace) error {
	if i == len(prog.main) {
		ok, err := e.programHolds(prog, sc)
		if err != nil {
			return err
		}
		if ok {
			return emit()
		}
		return nil
	}
	n := prog.main[i]
	var start time.Time
	if tm != nil {
		start = time.Now()
	}
	dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
	if err != nil {
		sc.putDomBuf(dom)
		return err
	}
	if len(dom) == 0 && n.Type == query.Type3 {
		dom = append(dom, inst{null: true})
	}
	var done <-chan struct{}
	if i == 0 {
		done = ctx.Done()
	}
	for k := range dom {
		if done != nil {
			select {
			case <-done:
				sc.putDomBuf(dom)
				return ctx.Err()
			default:
			}
		}
		stats.Instances++
		if tm != nil {
			tm.observe(i, dom[k])
		}
		sc.bind(n, dom[k])
		if err := e.runNestProgram(ctx, prog, sc, i+1, stats, emit, tm); err != nil {
			sc.putDomBuf(dom)
			return err
		}
	}
	sc.unbind(n)
	sc.putDomBuf(dom)
	if tm != nil {
		tm.nanos[i] += time.Since(start).Nanoseconds()
	}
	return nil
}

// programHolds evaluates the WHERE clause under the existential semantics
// of §4.5: "for some X(m+1) … for some X(n) if <selection expression> is
// true".
func (e *Executor) programHolds(prog *Program, sc *scratch) (bool, error) {
	if prog.where == nil {
		return true, nil
	}
	return e.programSome(prog, sc, 0)
}

func (e *Executor) programSome(prog *Program, sc *scratch, j int) (bool, error) {
	if j == len(prog.exist) {
		t, err := prog.where(sc)
		if err != nil {
			return false, err
		}
		return t.IsTrue(), nil
	}
	n := prog.exist[j]
	dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
	if err != nil {
		sc.putDomBuf(dom)
		return false, err
	}
	for k := range dom {
		sc.bind(n, dom[k])
		ok, err := e.programSome(prog, sc, j+1)
		if err != nil {
			sc.unbind(n)
			sc.putDomBuf(dom)
			return false, err
		}
		if ok {
			sc.unbind(n)
			sc.putDomBuf(dom)
			return true, nil
		}
	}
	sc.unbind(n)
	sc.putDomBuf(dom)
	return false, nil
}
