package exec

import (
	"fmt"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// This file lowers a bound query tree into a Program: one typed closure
// per expression node and one domain enumerator per range variable. The
// hot loop then runs no type switches, no fmt formatting and no query-tree
// traversal — it calls a chain of funcs whose shapes were decided once per
// statement shape (cached alongside the plan, so statements that differ
// only in literal values skip compilation entirely: closures read literal
// operands through query.Arg from the scratch's parameter vector). A
// recursive tree-walking evaluator of the same semantics lives in
// walker_test.go as a differential oracle; this is the only evaluator the
// engine runs.

// evalFn evaluates one compiled value expression against the scratch.
type evalFn func(sc *scratch) (value.Value, error)

// triFn evaluates one compiled boolean expression to a Kleene truth value.
type triFn func(sc *scratch) (value.Tri, error)

// domFn appends the instances of one range variable (under the current
// parent binding) to buf, prefetching decoded records in batches.
type domFn func(sc *scratch, buf []inst) ([]inst, error)

// subFn collects a subquery chain's non-NULL values onto sc.sub and
// returns the collected slice plus the stack mark the caller must truncate
// back to (sc.sub = sc.sub[:mark]) once done with the values.
type subFn func(sc *scratch) (vals []value.Value, mark int, err error)

// Program is one query's compiled form. It is immutable after Compile and
// safe to share across concurrent executions of the same plan: all mutable
// state lives in the per-execution scratch.
type Program struct {
	tree    *query.Tree
	main    []*query.Node
	exist   []*query.Node
	doms    []domFn // by node id; set for main and existential nodes
	target  []evalFn
	orderBy []evalFn
	where   triFn
	nNodes  int
}

// Compile lowers a planned query into a Program. Every bound expression
// lowers; an error here is the statement's error.
func (e *Executor) Compile(p *plan.Plan) (*Program, error) {
	return e.compile(p, p.Tree)
}

// compile lowers t, taking root access paths from p. A nil p scans every
// root — the form of the trees whose root the caller binds itself (entity
// filters, assignment right-hand sides, VERIFY assertions).
func (e *Executor) compile(p *plan.Plan, t *query.Tree) (*Program, error) {
	prog := &Program{
		tree:   t,
		main:   t.MainNodes(),
		exist:  t.ExistNodes(),
		doms:   make([]domFn, len(t.Nodes)),
		nNodes: len(t.Nodes),
	}
	for _, n := range prog.main {
		prog.doms[n.ID] = e.compileDomain(p, t, n, true)
	}
	for _, n := range prog.exist {
		// Existential domains enumerate with no plan, and stop at their
		// first witness (§4.5): a batch prefetch would read records the
		// loop never reaches, so their expressions read each record as
		// they get to it.
		prog.doms[n.ID] = e.compileDomain(nil, t, n, false)
	}
	prog.target = make([]evalFn, len(t.Targets))
	for i, tg := range t.Targets {
		fn, err := e.compileExpr(t, tg)
		if err != nil {
			return nil, err
		}
		prog.target[i] = fn
	}
	for _, ob := range t.OrderBy {
		fn, err := e.compileExpr(t, ob)
		if err != nil {
			return nil, err
		}
		prog.orderBy = append(prog.orderBy, fn)
	}
	if t.Where != nil {
		fn, err := e.compileTri(t, t.Where)
		if err != nil {
			return nil, err
		}
		prog.where = fn
	}
	return prog, nil
}

func unboundErr(n *query.Node) error {
	return fmt.Errorf("exec: range variable %q unbound", n.Label())
}

// ---------------------------------------------------------------------------
// Domain compilation
// ---------------------------------------------------------------------------

// compileDomain resolves node n's enumeration strategy once: root access
// path, EVA walk, transitive closure, subrole or MV DVA expansion. The
// returned closure appends instances to buf and, with prefetch set,
// batch-prefetches decoded records for the entities an EVA walk or closure
// reaches in single-record hierarchies.
func (e *Executor) compileDomain(p *plan.Plan, t *query.Tree, n *query.Node, prefetch bool) domFn {
	if n.IsRoot() || (n.Sub && n.Parent == nil) {
		return e.compileRootDomain(p, t, n)
	}
	pid := n.Parent.ID
	parentNode := n.Parent
	edge := n.Edge
	switch {
	case edge.Kind == catalog.EVA && n.Transitive:
		cl := n.Class
		return func(sc *scratch, buf []inst) ([]inst, error) {
			pit, ok, err := parentInst(sc, pid, parentNode)
			if err != nil || !ok {
				return buf, err
			}
			// Closure queries are rare; enumerate with closureOver and
			// just batch the record prefetch for what it found.
			out, err := closureOver(sc.m, pit.surr, edge)
			if err != nil {
				return buf, err
			}
			base := len(buf)
			buf = append(buf, out...)
			if !prefetch {
				return buf, nil
			}
			return buf, e.fillRecs(sc, cl, buf[base:])
		}
	case edge.Kind == catalog.EVA:
		cl := n.Class
		fkFast := e.m.FKHolder(edge)
		return func(sc *scratch, buf []inst) ([]inst, error) {
			pit, ok, err := parentInst(sc, pid, parentNode)
			if err != nil || !ok {
				return buf, err
			}
			base := len(buf)
			if fkFast && pit.rec.Valid() {
				// The partner surrogate sits in the already-decoded record's
				// FK slot: zero probes.
				if v := pit.rec.Single(edge); !v.IsNull() {
					buf = append(buf, inst{surr: v.Surrogate()})
				}
			} else {
				ss, err := sc.m.GetEVAInto(sc.surrs[:0], pit.surr, edge)
				if err != nil {
					return buf, err
				}
				for _, s := range ss {
					buf = append(buf, inst{surr: s})
				}
				sc.surrs = ss[:0]
			}
			if !prefetch {
				return buf, nil
			}
			return buf, e.fillRecs(sc, cl, buf[base:])
		}
	case edge.Kind == catalog.Subrole:
		srFast := e.m.Batchable(edge.Owner) && parentNode.Class.Base == edge.Owner.Base
		return func(sc *scratch, buf []inst) ([]inst, error) {
			pit, ok, err := parentInst(sc, pid, parentNode)
			if err != nil || !ok {
				return buf, err
			}
			if srFast && pit.rec.Valid() {
				for ord, sub := range edge.SubroleOf {
					if pit.rec.HasRole(sub.ID) {
						buf = append(buf, inst{val: value.NewSymbolic(sub.Name, ord)})
					}
				}
				return buf, nil
			}
			vals, err := sc.m.Subrole(pit.surr, edge)
			if err != nil {
				return buf, err
			}
			for _, v := range vals {
				buf = append(buf, inst{val: v})
			}
			return buf, nil
		}
	default: // MV DVA
		mvFast := !e.m.MVSeparate(edge) && parentNode.Class.Base == edge.Owner.Base
		return func(sc *scratch, buf []inst) ([]inst, error) {
			pit, ok, err := parentInst(sc, pid, parentNode)
			if err != nil || !ok {
				return buf, err
			}
			if mvFast && pit.rec.Valid() {
				// Values copy into instances here, so aliasing the shared
				// record's slice is safe.
				for _, v := range pit.rec.MultiRaw(edge) {
					buf = append(buf, inst{val: v})
				}
				return buf, nil
			}
			vals, err := sc.m.GetMV(pit.surr, edge)
			if err != nil {
				return buf, err
			}
			for _, v := range vals {
				buf = append(buf, inst{val: v})
			}
			return buf, nil
		}
	}
}

// parentInst fetches the parent binding; ok is false (with nil error) for
// outer-join dummies, whose children have empty domains.
func parentInst(sc *scratch, pid int, pn *query.Node) (inst, bool, error) {
	if !sc.set[pid] {
		return inst{}, false, unboundErr(pn)
	}
	it := sc.insts[pid]
	if it.null {
		return inst{}, false, nil
	}
	return it, true, nil
}

// compileRootDomain resolves the planned access path for a perspective
// root (or subquery-chain anchor, which always scans: those enumerate
// with no plan).
func (e *Executor) compileRootDomain(p *plan.Plan, t *query.Tree, n *query.Node) domFn {
	var access plan.RootAccess
	if p != nil {
		for i, r := range t.Roots {
			if r == n && i < len(p.Access) {
				access = p.Access[i]
			}
		}
	}
	cl := n.Class
	switch a := access.(type) {
	case *plan.UniqueAccess:
		return func(sc *scratch, buf []inst) ([]inst, error) {
			s, found, err := sc.m.LookupUnique(a.Attr, query.Arg(sc.params, a.Slot, a.Key))
			if err != nil || !found {
				return buf, err
			}
			return e.appendWithRole(sc, buf, []value.Surrogate{s}, cl)
		}
	case *plan.RangeAccess:
		return func(sc *scratch, buf []inst) ([]inst, error) {
			ss, err := sc.m.IndexScan(a.Attr, lucBound(a.Lo, sc.params), lucBound(a.Hi, sc.params))
			if err != nil {
				return buf, err
			}
			return e.appendWithRole(sc, buf, sortSurrs(ss), cl)
		}
	case *plan.PivotAccess:
		return func(sc *scratch, buf []inst) ([]inst, error) {
			ss, err := pivotRootsOver(sc.m, a, sc.params)
			if err != nil {
				return buf, err
			}
			return e.appendWithRole(sc, buf, ss, cl)
		}
	default:
		// A full scan decodes each record from the cell its cursor is on
		// (the zero Rec under the split strategy): no second descent per
		// entity, and no record-read traffic.
		return func(sc *scratch, buf []inst) ([]inst, error) {
			c, err := sc.m.Scan(cl)
			if err != nil {
				return buf, err
			}
			for ; c.Valid(); c.Next() {
				rec, err := c.Rec()
				if err != nil {
					return buf, err
				}
				buf = append(buf, inst{surr: c.Surrogate(), rec: rec})
			}
			return buf, c.Err()
		}
	}
}

// appendWithRole filters candidate surrogates to entities holding cl's
// role and appends them with prefetched records. In batchable hierarchies
// the role test reads the prefetched record instead of probing per entity.
func (e *Executor) appendWithRole(sc *scratch, buf []inst, ss []value.Surrogate, cl *catalog.Class) ([]inst, error) {
	base := len(buf)
	if sc.m.Batchable(cl) {
		for _, s := range ss {
			buf = append(buf, inst{surr: s})
		}
		if err := e.fillRecs(sc, cl, buf[base:]); err != nil {
			return buf, err
		}
		kept := buf[:base]
		for _, it := range buf[base:] {
			if it.rec.HasRole(cl.ID) {
				kept = append(kept, it)
			}
		}
		// Zero the tail so dropped entries don't pin records.
		for i := len(kept); i < len(buf); i++ {
			buf[i] = inst{}
		}
		return kept, nil
	}
	for _, s := range ss {
		ok, err := sc.m.HasRole(s, cl)
		if err != nil {
			return buf, err
		}
		if ok {
			buf = append(buf, inst{surr: s})
		}
	}
	return buf, nil
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

// compileExpr lowers a value expression. NULL propagates per §4.9's
// three-valued logic; boolean-valued subexpressions surface as boolean
// values with NULL for unknown.
func (e *Executor) compileExpr(t *query.Tree, x query.Expr) (evalFn, error) {
	switch x := x.(type) {
	case *query.Lit:
		v, slot := x.Val, x.Slot
		return func(sc *scratch) (value.Value, error) { return query.Arg(sc.params, slot, v), nil }, nil
	case *query.AttrRef:
		return e.compileAttrRef(x)
	case *query.EntityRef:
		n := x.Node
		id := n.ID
		return func(sc *scratch) (value.Value, error) {
			if !sc.set[id] {
				return value.Null, unboundErr(n)
			}
			it := &sc.insts[id]
			if it.null {
				return value.Null, nil
			}
			return value.NewSurrogate(it.surr), nil
		}, nil
	case *query.ValueRef:
		n := x.Node
		id := n.ID
		return func(sc *scratch) (value.Value, error) {
			if !sc.set[id] {
				return value.Null, unboundErr(n)
			}
			it := &sc.insts[id]
			if it.null {
				return value.Null, nil
			}
			return it.val, nil
		}, nil
	case *query.Unary:
		if x.Op == ast.OpNot {
			return e.triAsValue(t, x)
		}
		xf, err := e.compileExpr(t, x.X)
		if err != nil {
			return nil, err
		}
		zero := value.NewInt(0)
		return func(sc *scratch) (value.Value, error) {
			v, err := xf(sc)
			if err != nil {
				return value.Null, err
			}
			return value.OpSub.Apply(zero, v)
		}, nil
	case *query.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpEQ, ast.OpNEQ, ast.OpLT, ast.OpLE,
			ast.OpGT, ast.OpGE, ast.OpLike:
			return e.triAsValue(t, x)
		}
		lf, err := e.compileExpr(t, x.L)
		if err != nil {
			return nil, err
		}
		rf, err := e.compileExpr(t, x.R)
		if err != nil {
			return nil, err
		}
		op := arith(x.Op)
		return func(sc *scratch) (value.Value, error) {
			l, err := lf(sc)
			if err != nil {
				return value.Null, err
			}
			r, err := rf(sc)
			if err != nil {
				return value.Null, err
			}
			return op.Apply(l, r)
		}, nil
	case *query.Agg:
		return e.compileAgg(t, x)
	case *query.Isa:
		return e.triAsValue(t, x)
	case *query.Quant:
		return e.triAsValue(t, x)
	}
	return nil, fmt.Errorf("exec: cannot compile %T", x)
}

// triAsValue wraps a boolean subexpression for value position: NULL for
// unknown, a boolean value otherwise (triValue).
func (e *Executor) triAsValue(t *query.Tree, x query.Expr) (evalFn, error) {
	tf, err := e.compileTri(t, x)
	if err != nil {
		return nil, err
	}
	return func(sc *scratch) (value.Value, error) {
		tr, err := tf(sc)
		if err != nil {
			return value.Null, err
		}
		return triValue(tr), nil
	}, nil
}

func (e *Executor) compileAttrRef(x *query.AttrRef) (evalFn, error) {
	n, a := x.Node, x.Attr
	id := n.ID
	// Prefetched records are decoded under the node's hierarchy; only
	// attributes of that hierarchy may read through them.
	fast := a.Owner.Base == n.Class.Base
	if a.Kind == catalog.Subrole {
		return func(sc *scratch) (value.Value, error) {
			if !sc.set[id] {
				return value.Null, unboundErr(n)
			}
			it := &sc.insts[id]
			if it.null {
				return value.Null, nil
			}
			if fast && it.rec.Valid() {
				return it.rec.FirstSubrole(a), nil
			}
			vals, err := sc.m.Subrole(it.surr, a)
			if err != nil {
				return value.Null, err
			}
			if len(vals) == 0 {
				return value.Null, nil
			}
			return vals[0], nil
		}, nil
	}
	return func(sc *scratch) (value.Value, error) {
		if !sc.set[id] {
			return value.Null, unboundErr(n)
		}
		it := &sc.insts[id]
		if it.null {
			return value.Null, nil
		}
		if fast && it.rec.Valid() {
			return it.rec.Single(a), nil
		}
		return sc.m.GetSingle(it.surr, a)
	}, nil
}

// compileTri lowers a boolean expression to a Kleene truth value; any
// other expression evaluates as a value, and a boolean value converts.
func (e *Executor) compileTri(t *query.Tree, x query.Expr) (triFn, error) {
	switch x := x.(type) {
	case *query.Unary:
		if x.Op != ast.OpNot {
			break
		}
		xf, err := e.compileTri(t, x.X)
		if err != nil {
			return nil, err
		}
		return func(sc *scratch) (value.Tri, error) {
			tr, err := xf(sc)
			if err != nil {
				return value.Unknown, err
			}
			return tr.Not(), nil
		}, nil
	case *query.Binary:
		switch x.Op {
		case ast.OpAnd:
			lf, err := e.compileTri(t, x.L)
			if err != nil {
				return nil, err
			}
			rf, err := e.compileTri(t, x.R)
			if err != nil {
				return nil, err
			}
			return func(sc *scratch) (value.Tri, error) {
				l, err := lf(sc)
				if err != nil {
					return value.Unknown, err
				}
				if l == value.False {
					return value.False, nil // short-circuit
				}
				r, err := rf(sc)
				if err != nil {
					return value.Unknown, err
				}
				return l.And(r), nil
			}, nil
		case ast.OpOr:
			lf, err := e.compileTri(t, x.L)
			if err != nil {
				return nil, err
			}
			rf, err := e.compileTri(t, x.R)
			if err != nil {
				return nil, err
			}
			return func(sc *scratch) (value.Tri, error) {
				l, err := lf(sc)
				if err != nil {
					return value.Unknown, err
				}
				if l == value.True {
					return value.True, nil
				}
				r, err := rf(sc)
				if err != nil {
					return value.Unknown, err
				}
				return l.Or(r), nil
			}, nil
		case ast.OpLike:
			lf, err := e.compileExpr(t, x.L)
			if err != nil {
				return nil, err
			}
			rf, err := e.compileExpr(t, x.R)
			if err != nil {
				return nil, err
			}
			return func(sc *scratch) (value.Tri, error) {
				l, err := lf(sc)
				if err != nil {
					return value.Unknown, err
				}
				r, err := rf(sc)
				if err != nil {
					return value.Unknown, err
				}
				return value.Like(l, r)
			}, nil
		}
		if cmp, ok := cmpOf(x.Op); ok {
			return e.compileCmp(t, cmp, x.L, x.R)
		}
	case *query.Isa:
		n, cl := x.Node, x.Class
		id := n.ID
		// Surrogates (and so prefetched records) are per-hierarchy; a role
		// test against another hierarchy must go through the Mapper.
		sameBase := n.Class.Base == cl.Base
		return func(sc *scratch) (value.Tri, error) {
			if !sc.set[id] {
				return value.Unknown, unboundErr(n)
			}
			it := &sc.insts[id]
			if it.null {
				return value.Unknown, nil
			}
			if sameBase && it.rec.Valid() {
				return value.TriOf(it.rec.HasRole(cl.ID)), nil
			}
			ok, err := sc.m.HasRole(it.surr, cl)
			if err != nil {
				return value.Unknown, err
			}
			return value.TriOf(ok), nil
		}, nil
	case *query.Quant:
		sub, err := e.compileSub(t, x.Sub)
		if err != nil {
			return nil, err
		}
		q := x.Quant
		return func(sc *scratch) (value.Tri, error) {
			vals, mark, err := sub(sc)
			n := len(vals)
			sc.sub = sc.sub[:mark]
			if err != nil {
				return value.Unknown, err
			}
			switch q {
			case ast.QSome:
				return value.TriOf(n > 0), nil
			case ast.QNo:
				return value.TriOf(n == 0), nil
			}
			return value.Unknown, fmt.Errorf("exec: ALL(...) needs a comparison")
		}, nil
	}
	// General case: evaluate as a value; a boolean value converts.
	vf, err := e.compileExpr(t, x)
	if err != nil {
		return nil, err
	}
	return func(sc *scratch) (value.Tri, error) {
		v, err := vf(sc)
		if err != nil {
			return value.Unknown, err
		}
		switch {
		case v.IsNull():
			return value.Unknown, nil
		case v.Kind() == value.KindBool:
			return value.TriOf(v.Bool()), nil
		}
		return value.Unknown, fmt.Errorf("exec: expression is not boolean")
	}, nil
}

// compileCmp lowers a comparison. With a quantified operand (§4.6/§4.9)
// it folds the quantifier over the subquery's multiset: x neq some(ys)
// holds when some y satisfies x neq y; all(...) when every one does
// (vacuously true); no(...) when none does.
func (e *Executor) compileCmp(t *query.Tree, cmp value.Cmp, l, r query.Expr) (triFn, error) {
	lq, lIsQ := l.(*query.Quant)
	rq, rIsQ := r.(*query.Quant)
	switch {
	case lIsQ && rIsQ:
		return func(*scratch) (value.Tri, error) {
			return value.Unknown, fmt.Errorf("exec: both comparison operands are quantified")
		}, nil
	case rIsQ:
		lf, err := e.compileExpr(t, l)
		if err != nil {
			return nil, err
		}
		sub, err := e.compileSub(t, rq.Sub)
		if err != nil {
			return nil, err
		}
		q := rq.Quant
		return func(sc *scratch) (value.Tri, error) {
			lv, err := lf(sc)
			if err != nil {
				return value.Unknown, err
			}
			vals, mark, err := sub(sc)
			if err != nil {
				sc.sub = sc.sub[:mark]
				return value.Unknown, err
			}
			tr, err := applyQuant(q, cmp, lv, vals, false)
			sc.sub = sc.sub[:mark]
			return tr, err
		}, nil
	case lIsQ:
		rf, err := e.compileExpr(t, r)
		if err != nil {
			return nil, err
		}
		sub, err := e.compileSub(t, lq.Sub)
		if err != nil {
			return nil, err
		}
		q := lq.Quant
		return func(sc *scratch) (value.Tri, error) {
			rv, err := rf(sc)
			if err != nil {
				return value.Unknown, err
			}
			vals, mark, err := sub(sc)
			if err != nil {
				sc.sub = sc.sub[:mark]
				return value.Unknown, err
			}
			tr, err := applyQuant(q, cmp, rv, vals, true)
			sc.sub = sc.sub[:mark]
			return tr, err
		}, nil
	}
	lf, err := e.compileExpr(t, l)
	if err != nil {
		return nil, err
	}
	rf, err := e.compileExpr(t, r)
	if err != nil {
		return nil, err
	}
	return func(sc *scratch) (value.Tri, error) {
		lv, err := lf(sc)
		if err != nil {
			return value.Unknown, err
		}
		rv, err := rf(sc)
		if err != nil {
			return value.Unknown, err
		}
		return cmp.Apply(lv, rv)
	}, nil
}

// applyQuant folds a quantified comparison over an already-collected
// multiset without allocating a per-row test closure. fixed is the
// non-quantified operand; quantLeft places the multiset's values on the
// comparison's left side.
func applyQuant(q ast.Quant, cmp value.Cmp, fixed value.Value, vals []value.Value, quantLeft bool) (value.Tri, error) {
	apply := func(v value.Value) (value.Tri, error) {
		if quantLeft {
			return cmp.Apply(v, fixed)
		}
		return cmp.Apply(fixed, v)
	}
	switch q {
	case ast.QSome:
		out := value.False
		for _, v := range vals {
			tr, err := apply(v)
			if err != nil {
				return value.Unknown, err
			}
			out = out.Or(tr)
		}
		return out, nil
	case ast.QAll:
		out := value.True
		for _, v := range vals {
			tr, err := apply(v)
			if err != nil {
				return value.Unknown, err
			}
			out = out.And(tr)
		}
		return out, nil
	default: // QNo
		for _, v := range vals {
			tr, err := apply(v)
			if err != nil {
				return value.Unknown, err
			}
			if tr == value.True {
				return value.False, nil
			}
		}
		return value.True, nil
	}
}

// compileSub lowers a subquery chain: the collector enumerates the chain
// through reused domain buffers and pushes the value expression's
// non-NULL results onto sc.sub (NULLs excluded, matching the usual
// aggregate semantics).
func (e *Executor) compileSub(t *query.Tree, sq *query.SubQuery) (subFn, error) {
	vf, err := e.compileExpr(t, sq.Value)
	if err != nil {
		return nil, err
	}
	nodes := sq.Chain
	doms := make([]domFn, len(nodes))
	for i, n := range nodes {
		// Chains enumerate with no plan: their anchors always scan.
		doms[i] = e.compileDomain(nil, t, n, true)
	}
	var run func(sc *scratch, i int) error
	run = func(sc *scratch, i int) error {
		if i == len(nodes) {
			v, err := vf(sc)
			if err != nil {
				return err
			}
			if !v.IsNull() {
				sc.sub = append(sc.sub, v)
			}
			return nil
		}
		n := nodes[i]
		dom, err := doms[i](sc, sc.getDomBuf())
		if err != nil {
			sc.putDomBuf(dom)
			return err
		}
		for k := range dom {
			sc.bind(n, dom[k])
			if err := run(sc, i+1); err != nil {
				sc.putDomBuf(dom)
				return err
			}
		}
		sc.unbind(n)
		sc.putDomBuf(dom)
		return nil
	}
	return func(sc *scratch) ([]value.Value, int, error) {
		mark := len(sc.sub)
		if err := run(sc, 0); err != nil {
			return nil, mark, err
		}
		return sc.sub[mark:], mark, nil
	}, nil
}

// compileAgg pairs a compiled subquery collector with the aggregate fold.
func (e *Executor) compileAgg(t *query.Tree, a *query.Agg) (evalFn, error) {
	sub, err := e.compileSub(t, a.Sub)
	if err != nil {
		return nil, err
	}
	return func(sc *scratch) (value.Value, error) {
		vals, mark, err := sub(sc)
		if err != nil {
			sc.sub = sc.sub[:mark]
			return value.Null, err
		}
		v, err := aggregate(a, vals)
		sc.sub = sc.sub[:mark]
		return v, err
	}, nil
}

// triValue is a truth value in value position: NULL for Unknown.
func triValue(t value.Tri) value.Value {
	switch t {
	case value.True:
		return value.NewBool(true)
	case value.False:
		return value.NewBool(false)
	}
	return value.Null
}

func arith(op ast.BinaryOp) value.Arith {
	switch op {
	case ast.OpAdd:
		return value.OpAdd
	case ast.OpSub:
		return value.OpSub
	case ast.OpMul:
		return value.OpMul
	}
	return value.OpDiv
}

func cmpOf(op ast.BinaryOp) (value.Cmp, bool) {
	switch op {
	case ast.OpEQ:
		return value.CmpEQ, true
	case ast.OpNEQ:
		return value.CmpNEQ, true
	case ast.OpLT:
		return value.CmpLT, true
	case ast.OpLE:
		return value.CmpLE, true
	case ast.OpGT:
		return value.CmpGT, true
	case ast.OpGE:
		return value.CmpGE, true
	}
	return 0, false
}

// aggregate folds one aggregate function over a collected multiset.
// DISTINCT compacts vals in place.
func aggregate(a *query.Agg, vals []value.Value) (value.Value, error) {
	if a.Distinct {
		seen := make(map[string]bool, len(vals))
		kept := vals[:0]
		for _, v := range vals {
			k := v.Key()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, v)
			}
		}
		vals = kept
	}
	switch a.Func {
	case ast.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case ast.AggSum, ast.AggAvg:
		if len(vals) == 0 {
			return value.Null, nil
		}
		sum := 0.0
		isInt := true
		for _, v := range vals {
			switch v.Kind() {
			case value.KindInt:
				sum += float64(v.Int())
			case value.KindNumber:
				sum += v.Number()
				isInt = false
			default:
				return value.Null, fmt.Errorf("exec: %s over non-numeric %s", a.Func, v.Kind())
			}
		}
		if a.Func == ast.AggAvg {
			return value.NewNumber(sum / float64(len(vals))), nil
		}
		if isInt {
			return value.NewInt(int64(sum)), nil
		}
		return value.NewNumber(sum), nil
	case ast.AggMin, ast.AggMax:
		if len(vals) == 0 {
			return value.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := value.Compare(v, best)
			if err != nil {
				return value.Null, err
			}
			if (a.Func == ast.AggMin && c < 0) || (a.Func == ast.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return value.Null, fmt.Errorf("exec: unknown aggregate %v", a.Func)
}
