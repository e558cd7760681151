package exec

import (
	"fmt"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// This file is the differential oracle for the compiled evaluator: a
// recursive tree walker implementing §4.5's nested-loop semantics
// directly over the bound query tree, one binding environment at a time,
// with no closures, buffers or prefetched records. It shares
// only the leaf helpers (aggregate, triValue, arith, cmpOf, closureOver,
// pivotRootsOver, lucBound) with the engine. differential_test.go holds
// the compiled programs to it.

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

// ---------------------------------------------------------------------------
// Retrieve
// ---------------------------------------------------------------------------

// retrieveTree executes a planned query serially by walking its tree.
func (e *Executor) retrieveTree(p *plan.Plan) (*Result, error) {
	t := p.Tree
	if t.Mode == ast.OutputStructure && len(t.OrderBy) > 0 {
		return nil, errOrderByStructure()
	}
	res := newResult(t)
	main := t.MainNodes()
	exist := t.ExistNodes()
	var stats Stats
	if len(main) > 0 {
		en := newEnv(len(t.Nodes))
		emit := e.emitter(t, en, main, res, &stats)
		if err := e.runNest(p, t, main, exist, en, 0, &stats, emit); err != nil {
			return nil, err
		}
	}
	res.finish(t)
	res.Stats = stats
	return res, nil
}

// emitter evaluates the target and ORDER BY expressions of one accepted
// combination and hands the row to the result.
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
		res.add(t, en.insts, main, row, order)
		return nil
	}
}

// runNest runs the DAPLEX iteration of §4.5 from main-variable depth i
// down, calling emit for every combination that passes the selection.
func (e *Executor) runNest(p *plan.Plan, t *query.Tree, main, exist []*query.Node, en *env, i int, stats *Stats, emit func() error) error {
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
	dom, err := e.domain(p, t, n, en)
	if err != nil {
		return err
	}
	if len(dom) == 0 && n.Type == query.Type3 {
		// §4.5: "when empty, adding a dummy instance all of whose
		// attributes are null" — the directed outer join.
		dom = []inst{{null: true}}
	}
	for _, it := range dom {
		stats.Instances++
		en.bind(n, it)
		if err := e.runNest(p, t, main, exist, en, i+1, stats, emit); err != nil {
			return err
		}
	}
	en.unbind(n)
	return nil
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
// The plan (nil for existential and subquery nodes) chooses root access
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
		return e.withRole(sortSurrs(ss), n.Class)
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

// ---------------------------------------------------------------------------
// Updates and VERIFY
// ---------------------------------------------------------------------------

// oracleSelect is selectEntities on the walker.
func (e *Executor) oracleSelect(cl *catalog.Class, where ast.Expr) ([]value.Surrogate, error) {
	t, err := query.BindSelection(e.cat, cl, where)
	if err != nil {
		return nil, err
	}
	p, err := plan.Optimize(t, e.m)
	if err != nil {
		return nil, err
	}
	dom, err := e.rootDomain(p, t, t.Roots[0])
	if err != nil {
		return nil, err
	}
	return e.oracleKeep(t, dom)
}

// oracleFilter is filterEntities on the walker.
func (e *Executor) oracleFilter(cl *catalog.Class, candidates []value.Surrogate, where ast.Expr) ([]value.Surrogate, error) {
	if where == nil {
		return candidates, nil
	}
	t, err := query.BindSelection(e.cat, cl, where)
	if err != nil {
		return nil, err
	}
	dom := make([]inst, len(candidates))
	for i, s := range candidates {
		dom[i] = inst{surr: s}
	}
	return e.oracleKeep(t, dom)
}

func (e *Executor) oracleKeep(t *query.Tree, dom []inst) ([]value.Surrogate, error) {
	en := newEnv(len(t.Nodes))
	exist := t.ExistNodes()
	var out []value.Surrogate
	for _, it := range dom {
		en.bind(t.Roots[0], it)
		ok, err := e.selectionHolds(t, en, exist)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, it.surr)
		}
	}
	return out, nil
}

// oracleScalar is evalScalarFor on the walker.
func (e *Executor) oracleScalar(s value.Surrogate, cl *catalog.Class, expr ast.Expr) (value.Value, error) {
	if lit, ok := expr.(*ast.Lit); ok {
		return lit.Val, nil
	}
	t, err := query.BindScalar(e.cat, cl, expr)
	if err != nil {
		return value.Null, err
	}
	for _, n := range t.Nodes {
		if !n.IsRoot() && !n.Sub && !n.IsValue {
			if n.Edge != nil && n.Edge.Options.MV {
				return value.Null, fmt.Errorf("assignment expression traverses multi-valued %s", n.Edge)
			}
		}
		if n.IsValue && !n.Sub {
			return value.Null, fmt.Errorf("assignment expression reads multi-valued %s; aggregate it instead", n.Edge)
		}
	}
	en := newEnv(len(t.Nodes))
	en.bind(t.Roots[0], inst{surr: s})
	for _, n := range t.MainNodes() {
		if n.IsRoot() {
			continue
		}
		dom, err := e.domain(nil, t, n, en)
		if err != nil {
			return value.Null, err
		}
		if len(dom) == 0 {
			en.bind(n, inst{null: true})
		} else {
			en.bind(n, dom[0])
		}
	}
	return e.eval(t.Targets[0], en)
}

// oracleCheck is checkEntity on the walker.
func (e *Executor) oracleCheck(c *Constraint, s value.Surrogate) error {
	ok, err := e.m.HasRole(s, c.Verify.Class)
	if err != nil || !ok {
		return err
	}
	t := c.Tree
	en := newEnv(len(t.Nodes))
	en.bind(t.Roots[0], inst{surr: s})
	holds, err := e.assertionHolds(t, en)
	if err != nil {
		return err
	}
	if !holds {
		return &ViolationError{Name: c.Verify.Name, Entity: s, Message: c.Verify.ElseMsg}
	}
	return nil
}

// assertionHolds evaluates a constraint tree's condition for the pinned
// root. Unlike WHERE filtering, a result of Unknown passes.
func (e *Executor) assertionHolds(t *query.Tree, en *env) (bool, error) {
	exist := t.ExistNodes()
	if len(exist) == 0 {
		tri, err := e.evalTri(t.Where, en)
		if err != nil {
			return false, err
		}
		return tri != value.False, nil
	}
	// Existentially quantified condition: definite falsity means no
	// binding makes it true AND at least one binding makes it false.
	anyTrue, anyUnknown, anyBinding := false, false, false
	var walk func(j int) error
	walk = func(j int) error {
		if j == len(exist) {
			anyBinding = true
			tri, err := e.evalTri(t.Where, en)
			if err != nil {
				return err
			}
			switch tri {
			case value.True:
				anyTrue = true
			case value.Unknown:
				anyUnknown = true
			}
			return nil
		}
		n := exist[j]
		dom, err := e.domain(nil, t, n, en)
		if err != nil {
			return err
		}
		for _, it := range dom {
			en.bind(n, it)
			if err := walk(j + 1); err != nil {
				return err
			}
			if anyTrue {
				break
			}
		}
		en.unbind(n)
		return nil
	}
	if err := walk(0); err != nil {
		return false, err
	}
	return anyTrue || anyUnknown || !anyBinding, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// eval computes a bound expression's value under the current environment.
func (e *Executor) eval(x query.Expr, en *env) (value.Value, error) {
	switch x := x.(type) {
	case *query.Lit:
		return x.Val, nil
	case *query.AttrRef:
		return e.evalAttrRef(x, en)
	case *query.EntityRef:
		it, err := en.get(x.Node)
		if err != nil {
			return value.Null, err
		}
		if it.null {
			return value.Null, nil
		}
		return value.NewSurrogate(it.surr), nil
	case *query.ValueRef:
		it, err := en.get(x.Node)
		if err != nil {
			return value.Null, err
		}
		if it.null {
			return value.Null, nil
		}
		return it.val, nil
	case *query.Unary:
		if x.Op == ast.OpNot {
			tri, err := e.evalTri(x, en)
			if err != nil {
				return value.Null, err
			}
			return triValue(tri), nil
		}
		v, err := e.eval(x.X, en)
		if err != nil {
			return value.Null, err
		}
		return value.OpSub.Apply(value.NewInt(0), v)
	case *query.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpEQ, ast.OpNEQ, ast.OpLT, ast.OpLE,
			ast.OpGT, ast.OpGE, ast.OpLike:
			tri, err := e.evalTri(x, en)
			if err != nil {
				return value.Null, err
			}
			return triValue(tri), nil
		}
		l, err := e.eval(x.L, en)
		if err != nil {
			return value.Null, err
		}
		r, err := e.eval(x.R, en)
		if err != nil {
			return value.Null, err
		}
		return arith(x.Op).Apply(l, r)
	case *query.Agg:
		vals, err := e.subValues(x.Sub, en)
		if err != nil {
			return value.Null, err
		}
		return aggregate(x, vals)
	case *query.Isa, *query.Quant:
		tri, err := e.evalTri(x, en)
		if err != nil {
			return value.Null, err
		}
		return triValue(tri), nil
	}
	return value.Null, fmt.Errorf("exec: cannot evaluate %T", x)
}

// evalTri evaluates a boolean expression to a Kleene truth value.
func (e *Executor) evalTri(x query.Expr, en *env) (value.Tri, error) {
	switch x := x.(type) {
	case *query.Unary:
		if x.Op != ast.OpNot {
			break
		}
		t, err := e.evalTri(x.X, en)
		if err != nil {
			return value.Unknown, err
		}
		return t.Not(), nil
	case *query.Binary:
		switch x.Op {
		case ast.OpAnd:
			l, err := e.evalTri(x.L, en)
			if err != nil {
				return value.Unknown, err
			}
			if l == value.False {
				return value.False, nil
			}
			r, err := e.evalTri(x.R, en)
			if err != nil {
				return value.Unknown, err
			}
			return l.And(r), nil
		case ast.OpOr:
			l, err := e.evalTri(x.L, en)
			if err != nil {
				return value.Unknown, err
			}
			if l == value.True {
				return value.True, nil
			}
			r, err := e.evalTri(x.R, en)
			if err != nil {
				return value.Unknown, err
			}
			return l.Or(r), nil
		case ast.OpLike:
			l, err := e.eval(x.L, en)
			if err != nil {
				return value.Unknown, err
			}
			r, err := e.eval(x.R, en)
			if err != nil {
				return value.Unknown, err
			}
			return value.Like(l, r)
		}
		if cmp, ok := cmpOf(x.Op); ok {
			return e.evalCmp(cmp, x.L, x.R, en)
		}
	case *query.Isa:
		it, err := en.get(x.Node)
		if err != nil {
			return value.Unknown, err
		}
		if it.null {
			return value.Unknown, nil
		}
		ok, err := e.m.HasRole(it.surr, x.Class)
		if err != nil {
			return value.Unknown, err
		}
		return value.TriOf(ok), nil
	case *query.Quant:
		// Bare quantifier in boolean position: existence test.
		vals, err := e.subValues(x.Sub, en)
		if err != nil {
			return value.Unknown, err
		}
		switch x.Quant {
		case ast.QSome:
			return value.TriOf(len(vals) > 0), nil
		case ast.QNo:
			return value.TriOf(len(vals) == 0), nil
		}
		return value.Unknown, fmt.Errorf("exec: ALL(...) needs a comparison")
	}
	// General case: evaluate as a value; a boolean value converts.
	v, err := e.eval(x, en)
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
}

// evalCmp handles comparisons, including quantified operands (§4.6/§4.9).
func (e *Executor) evalCmp(cmp value.Cmp, l, r query.Expr, en *env) (value.Tri, error) {
	lq, lIsQ := l.(*query.Quant)
	rq, rIsQ := r.(*query.Quant)
	switch {
	case lIsQ && rIsQ:
		return value.Unknown, fmt.Errorf("exec: both comparison operands are quantified")
	case rIsQ:
		lv, err := e.eval(l, en)
		if err != nil {
			return value.Unknown, err
		}
		return e.quantCompare(rq, en, func(v value.Value) (value.Tri, error) {
			return cmp.Apply(lv, v)
		})
	case lIsQ:
		rv, err := e.eval(r, en)
		if err != nil {
			return value.Unknown, err
		}
		return e.quantCompare(lq, en, func(v value.Value) (value.Tri, error) {
			return cmp.Apply(v, rv)
		})
	}
	lv, err := e.eval(l, en)
	if err != nil {
		return value.Unknown, err
	}
	rv, err := e.eval(r, en)
	if err != nil {
		return value.Unknown, err
	}
	return cmp.Apply(lv, rv)
}

func (e *Executor) quantCompare(q *query.Quant, en *env, test func(value.Value) (value.Tri, error)) (value.Tri, error) {
	vals, err := e.subValues(q.Sub, en)
	if err != nil {
		return value.Unknown, err
	}
	switch q.Quant {
	case ast.QSome:
		out := value.False
		for _, v := range vals {
			t, err := test(v)
			if err != nil {
				return value.Unknown, err
			}
			out = out.Or(t)
		}
		return out, nil
	case ast.QAll:
		out := value.True
		for _, v := range vals {
			t, err := test(v)
			if err != nil {
				return value.Unknown, err
			}
			out = out.And(t)
		}
		return out, nil
	default: // QNo
		for _, v := range vals {
			t, err := test(v)
			if err != nil {
				return value.Unknown, err
			}
			if t == value.True {
				return value.False, nil
			}
		}
		return value.True, nil
	}
}

func (e *Executor) evalAttrRef(x *query.AttrRef, en *env) (value.Value, error) {
	it, err := en.get(x.Node)
	if err != nil {
		return value.Null, err
	}
	if it.null {
		return value.Null, nil
	}
	if x.Attr.Kind == catalog.Subrole {
		vals, err := e.m.Subrole(it.surr, x.Attr)
		if err != nil || len(vals) == 0 {
			return value.Null, err
		}
		return vals[0], nil
	}
	return e.m.GetSingle(it.surr, x.Attr)
}

// subValues iterates a subquery chain under the current environment and
// collects the value expression's non-NULL results.
func (e *Executor) subValues(sq *query.SubQuery, en *env) ([]value.Value, error) {
	var out []value.Value
	var loop func(i int) error
	loop = func(i int) error {
		if i == len(sq.Chain) {
			v, err := e.eval(sq.Value, en)
			if err != nil {
				return err
			}
			if !v.IsNull() {
				out = append(out, v)
			}
			return nil
		}
		n := sq.Chain[i]
		dom, err := e.domain(nil, nil, n, en)
		if err != nil {
			return err
		}
		for _, it := range dom {
			en.bind(n, it)
			if err := loop(i + 1); err != nil {
				return err
			}
		}
		en.unbind(n)
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	return out, nil
}
