package exec

import (
	"context"
	"fmt"
	"strings"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// events collects the mutations of one update statement for integrity
// trigger detection (§3.3).
type events struct {
	dva  []dvaEvent
	eva  []evaEvent
	role []roleEvent
}

type dvaEvent struct {
	attr *catalog.Attribute
	s    value.Surrogate
}

type evaEvent struct {
	attr *catalog.Attribute // as referenced (either direction)
	s, t value.Surrogate
}

type roleEvent struct {
	class *catalog.Class
	s     value.Surrogate
}

// Update is an Insert, Modify or Delete statement's compiled form: its
// target selection, one compiled selection per EVA WITH (…) or EXCLUDE
// filter, and the compiled form of every non-literal assignment
// right-hand side, each bound, planned and compiled once. Like a Program
// it reads its literal operands through query.Arg, so one Update runs
// every statement of its shape when given that statement's parameter
// vector. It is immutable and safe to share across executions.
//
// Compiling meets errors that belong to points of the execution: an
// unknown attribute, a selection that does not bind. Such an error is
// kept and reported where the statement reaches that point, so an Update
// behaves as if every part were bound when first needed — a Modify that
// selects nothing never reports its assignments' errors.
type Update struct {
	stmt    ast.Stmt
	cl      *catalog.Class // the class the statement names
	from    *catalog.Class // INSERT … FROM: the class whose entities gain cl's role
	err     error          // reported before the statement reads or writes anything
	target  selection      // Modify, Delete, INSERT … FROM: the target selection
	assigns []assignment
}

// selection is one compiled entity selection. A planned selection (p
// set) enumerates its class through the plan's root access; an unplanned
// one filters candidates its caller supplies, and keeps every candidate
// when it has no program (no WHERE).
type selection struct {
	p    *plan.Plan
	prog *Program
}

// assignment is one compiled assignment of an update's list.
type assignment struct {
	a    ast.Assign
	attr *catalog.Attribute
	err  error     // reported before the assignment touches its entity
	rhs  *Program  // a DVA's non-literal right-hand side
	sel  selection // an EVA's entity selection (EXCLUDE: a filter of the current partners)
}

// CompileUpdate compiles an Insert, Modify or Delete statement, costing
// its selections with the statistics stats reads (a snapshot view's, or
// the live pages under the write latch). The programs are compiled on e,
// which should be the long-lived live executor when the Update is cached:
// its closures reach the compiling executor.
func (e *Executor) CompileUpdate(stmt ast.Stmt, stats *luc.Mapper) *Update {
	u := &Update{stmt: stmt}
	switch s := stmt.(type) {
	case *ast.InsertStmt:
		if u.cl, u.err = e.cat.MustClass(s.Class); u.err != nil {
			return u
		}
		if s.FromClass != "" {
			if u.from, u.err = e.cat.MustClass(s.FromClass); u.err != nil {
				return u
			}
			if !catalog.IsAncestor(u.from, u.cl) {
				u.err = fmt.Errorf("INSERT %s FROM %s: %s is not an ancestor of %s", u.cl.Name, u.from.Name, u.from.Name, u.cl.Name)
				return u
			}
			if u.target, u.err = e.compileSelection(u.from, s.FromWhere, stats); u.err != nil {
				return u
			}
		}
		u.compileAssigns(e, s.Assigns, stats)
	case *ast.ModifyStmt:
		if u.cl, u.err = e.cat.MustClass(s.Class); u.err != nil {
			return u
		}
		if u.target, u.err = e.compileSelection(u.cl, s.Where, stats); u.err != nil {
			return u
		}
		u.compileAssigns(e, s.Assigns, stats)
	case *ast.DeleteStmt:
		if u.cl, u.err = e.cat.MustClass(s.Class); u.err != nil {
			return u
		}
		u.target, u.err = e.compileSelection(u.cl, s.Where, stats)
	default:
		u.err = fmt.Errorf("exec: not an update statement: %T", stmt)
	}
	return u
}

func (u *Update) compileAssigns(e *Executor, assigns []ast.Assign, stats *luc.Mapper) {
	u.assigns = make([]assignment, len(assigns))
	for i, a := range assigns {
		u.assigns[i] = e.compileAssign(u.cl, a, stats)
	}
}

// Err returns the first error compiling the statement met, or nil. An
// Update with an error still runs — reporting the error where the
// statement reaches it — but must not serve other statements of its
// shape: a literal's value can be the cause.
func (u *Update) Err() error {
	if u.err != nil {
		return u.err
	}
	for i := range u.assigns {
		if err := u.assigns[i].err; err != nil {
			return err
		}
	}
	return nil
}

// Lits returns the slot-carrying literals of every compiled part, as the
// binder typed them and the optimizer marked them (query.Lit.Fixed).
// Assignment right-hand sides that are a bare literal are not among them:
// they are read from the parameter vector and coerced as assigned.
func (u *Update) Lits() []*query.Lit {
	var out []*query.Lit
	u.programs(func(prog *Program, _ *plan.Plan) { out = append(out, prog.tree.Lits...) })
	return out
}

// Cards returns the class cardinalities the costing of the Update's
// planned selections read (see plan.Plan.Cards).
func (u *Update) Cards() []plan.Card {
	var out []plan.Card
	u.programs(func(_ *Program, p *plan.Plan) {
		if p != nil {
			out = append(out, p.Cards...)
		}
	})
	return out
}

// programs calls fn for every compiled program, with its plan when it has
// one.
func (u *Update) programs(fn func(*Program, *plan.Plan)) {
	visit := func(sel selection) {
		if sel.prog != nil {
			fn(sel.prog, sel.p)
		}
	}
	visit(u.target)
	for i := range u.assigns {
		a := &u.assigns[i]
		if a.rhs != nil {
			fn(a.rhs, nil)
		}
		visit(a.sel)
	}
}

// compileSelection binds, plans and compiles a selection of cl's entities
// satisfying where (all of them when where is nil): the root's access path
// is planned like a Retrieve's.
func (e *Executor) compileSelection(cl *catalog.Class, where ast.Expr, stats *luc.Mapper) (selection, error) {
	t, err := query.BindSelection(e.cat, cl, where)
	if err != nil {
		return selection{}, err
	}
	p, err := plan.Optimize(t, stats)
	if err != nil {
		return selection{}, err
	}
	prog, err := e.Compile(p)
	if err != nil {
		return selection{}, err
	}
	return selection{p: p, prog: prog}, nil
}

// compileFilter compiles a filter keeping the candidates of cl that
// satisfy where, evaluated with the candidate as the perspective instance.
func (e *Executor) compileFilter(cl *catalog.Class, where ast.Expr) (selection, error) {
	if where == nil {
		return selection{}, nil
	}
	t, err := query.BindSelection(e.cat, cl, where)
	if err != nil {
		return selection{}, err
	}
	prog, err := e.compile(nil, t)
	if err != nil {
		return selection{}, err
	}
	return selection{prog: prog}, nil
}

// compileAssign resolves one assignment of an update on cl and compiles
// its right-hand side, keeping what applying it would report before
// touching the entity.
func (e *Executor) compileAssign(cl *catalog.Class, a ast.Assign, stats *luc.Mapper) assignment {
	as := assignment{a: a, attr: catalog.ResolveAttr(cl, a.Attr)}
	attr := as.attr
	switch {
	case attr == nil:
		as.err = fmt.Errorf("class %s has no attribute %q", cl.Name, a.Attr)
	case attr.Kind == catalog.Subrole:
		as.err = fmt.Errorf("subrole %s is system-maintained and cannot be assigned", attr)
	case attr.Kind == catalog.Derived:
		as.err = fmt.Errorf("derived attribute %s is computed and cannot be assigned", attr)
	case attr.Kind == catalog.EVA:
		as.sel, as.err = e.compileEVASelection(attr, a, stats)
	case a.Entity != nil:
		as.err = fmt.Errorf("%s is data-valued; entity selection does not apply", attr)
	default:
		if _, lit := a.Value.(*ast.Lit); !lit {
			as.rhs, as.err = e.compileScalar(cl, a.Value)
		}
	}
	if as.err != nil {
		as.err = fmt.Errorf("%s := ...: %w", a.Attr, as.err)
	}
	return as
}

// compileEVASelection compiles the right-hand side of an EVA assignment
// (see assignEVA): NULL needs nothing, EXCLUDE filters the current
// partners, set and INCLUDE select from the named class.
func (e *Executor) compileEVASelection(attr *catalog.Attribute, a ast.Assign, stats *luc.Mapper) (selection, error) {
	if a.Entity == nil {
		lit, ok := a.Value.(*ast.Lit)
		if !ok || !lit.Val.IsNull() {
			return selection{}, fmt.Errorf("%s is entity-valued; assign <class> WITH (...) or NULL", attr)
		}
		return selection{}, nil
	}
	if a.Mode == ast.AssignExclude {
		if !nameMatchesAttr(a.Entity.Name, attr) {
			return selection{}, fmt.Errorf("EXCLUDE selects from the EVA itself: expected %q, found %q", attr.Name, a.Entity.Name)
		}
		return e.compileFilter(attr.Range, a.Entity.Where)
	}
	selCl := e.cat.Class(a.Entity.Name)
	if selCl == nil {
		return selection{}, fmt.Errorf("unknown class %q in entity selection", a.Entity.Name)
	}
	if !catalog.IsAncestor(attr.Range, selCl) {
		return selection{}, fmt.Errorf("class %s is not in the range of %s (%s)", selCl.Name, attr, attr.Range.Name)
	}
	return e.compileSelection(selCl, a.Entity.Where, stats)
}

// compileScalar compiles an assignment right-hand side evaluated in the
// context of one entity of cl (so "salary := 1.1 * salary" reads the
// entity's own salary).
func (e *Executor) compileScalar(cl *catalog.Class, expr ast.Expr) (*Program, error) {
	t, err := query.BindScalar(e.cat, cl, expr)
	if err != nil {
		return nil, err
	}
	for _, n := range t.Nodes {
		if !n.IsRoot() && !n.Sub && !n.IsValue {
			// Entity-valued paths are fine (single-valued EVAs), but a
			// multi-valued main node would make the RHS multi-valued.
			if n.Edge != nil && n.Edge.Options.MV {
				return nil, fmt.Errorf("assignment expression traverses multi-valued %s", n.Edge)
			}
		}
		if n.IsValue && !n.Sub {
			return nil, fmt.Errorf("assignment expression reads multi-valued %s; aggregate it instead", n.Edge)
		}
	}
	return e.compile(nil, t)
}

// Exec runs a compiled update for the statement whose literals are params
// (nil: the statement it was compiled from) and returns the affected
// entity count. The vector is only read. Cancellation is checked between
// the entities an update selects.
func (e *Executor) Exec(ctx context.Context, u *Update, params []value.Value) (int, error) {
	if u.err != nil {
		return 0, u.err
	}
	switch u.stmt.(type) {
	case *ast.InsertStmt:
		return e.insert(ctx, u, params)
	case *ast.ModifyStmt:
		return e.modify(ctx, u, params)
	}
	return e.delete(ctx, u, params)
}

// insert executes §4.8's INSERT: create a new entity, or — with FROM —
// extend the roles of existing entities.
func (e *Executor) insert(ctx context.Context, u *Update, params []value.Value) (int, error) {
	cl := u.cl
	ev := &events{}
	var affected []value.Surrogate

	if u.from == nil {
		s, err := e.m.NewEntity(cl)
		if err != nil {
			return 0, err
		}
		ev.role = append(ev.role, roleEvent{cl, s})
		if err := e.applyAssigns(ctx, s, cl, u.assigns, params, ev); err != nil {
			return 0, err
		}
		newRoles := append([]*catalog.Class{cl}, catalog.Ancestors(cl)...)
		if err := e.checkRequired(s, newRoles); err != nil {
			return 0, err
		}
		affected = []value.Surrogate{s}
	} else {
		matches, err := e.selectAll(ctx, u.target, params)
		if err != nil {
			return 0, err
		}
		if len(matches) == 0 {
			return 0, fmt.Errorf("INSERT %s FROM %s selected no entities", cl.Name, u.from.Name)
		}
		for _, s := range matches {
			if err := ctxErr(ctx); err != nil {
				return 0, err
			}
			added, err := e.m.ExtendRole(s, cl)
			if err != nil {
				return 0, err
			}
			for _, c := range added {
				ev.role = append(ev.role, roleEvent{c, s})
			}
			if err := e.applyAssigns(ctx, s, cl, u.assigns, params, ev); err != nil {
				return 0, err
			}
			if err := e.checkRequired(s, added); err != nil {
				return 0, err
			}
			affected = append(affected, s)
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(affected))
	return len(affected), nil
}

// modify executes §4.8's MODIFY against every entity of the class
// satisfying WHERE.
func (e *Executor) modify(ctx context.Context, u *Update, params []value.Value) (int, error) {
	matches, err := e.selectAll(ctx, u.target, params)
	if err != nil {
		return 0, err
	}
	ev := &events{}
	for _, s := range matches {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		if err := e.applyAssigns(ctx, s, u.cl, u.assigns, params, ev); err != nil {
			return 0, err
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(matches))
	return len(matches), nil
}

// delete executes §4.8's DELETE: the entities lose their role in the
// class and every subclass role, keeping superclass roles.
func (e *Executor) delete(ctx context.Context, u *Update, params []value.Value) (int, error) {
	cl := u.cl
	matches, err := e.selectAll(ctx, u.target, params)
	if err != nil {
		return 0, err
	}
	ev := &events{}
	for _, s := range matches {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		// Snapshot the relationship instances about to be destroyed, for
		// trigger detection on surviving partners.
		doomed := []*catalog.Class{cl}
		for _, d := range catalog.Descendants(cl) {
			if ok, err := e.m.HasRole(s, d); err != nil {
				return 0, err
			} else if ok {
				doomed = append(doomed, d)
			}
		}
		for _, d := range doomed {
			ev.role = append(ev.role, roleEvent{d, s})
			for _, a := range d.Attrs {
				if a.Kind != catalog.EVA {
					continue
				}
				targets, err := e.m.GetEVA(s, a)
				if err != nil {
					return 0, err
				}
				for _, t := range targets {
					ev.eva = append(ev.eva, evaEvent{a, s, t})
				}
			}
		}
		if err := e.m.DeleteRoles(s, cl); err != nil {
			return 0, err
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(matches))
	return len(matches), nil
}

// UpdateTargets resolves the entities a compiled update would write for
// the statement whose literals are params — its target selection,
// materialized without mutating anything. Insert without FROM creates a
// fresh entity and so has no pre-existing targets (a nil slice). A
// transaction that has not written yet resolves them on its read snapshot
// and checks them against the write-latch holder's writes before queueing
// on the store write latch.
func (e *Executor) UpdateTargets(ctx context.Context, u *Update, params []value.Value) (*catalog.Class, []value.Surrogate, error) {
	if u.err != nil {
		return nil, nil, u.err
	}
	cl := u.cl
	if u.from != nil {
		cl = u.from
	}
	if u.target.prog == nil {
		return cl, nil, nil
	}
	ss, err := e.selectAll(ctx, u.target, params)
	return cl, ss, err
}

// selectAll runs a planned selection for the statement whose literals
// are params: the entities of its class satisfying its WHERE, in
// surrogate order, checking cancellation between candidates. The result
// is materialized before any mutation, as the DML's snapshot semantics
// require.
func (e *Executor) selectAll(ctx context.Context, sel selection, params []value.Value) ([]value.Surrogate, error) {
	prog := sel.prog
	sc := e.getScratch(prog.nNodes, params)
	defer e.putScratch(sc)
	dom, err := prog.doms[prog.main[0].ID](sc, sc.getDomBuf())
	defer sc.putDomBuf(dom)
	if err != nil {
		return nil, err
	}
	return e.selectFrom(ctx, prog, sc, dom)
}

// selectFrom keeps the surrogates of the root candidates in dom for which
// the program's WHERE holds, checking cancellation between candidates.
func (e *Executor) selectFrom(ctx context.Context, prog *Program, sc *scratch, dom []inst) ([]value.Surrogate, error) {
	root := prog.main[0]
	var out []value.Surrogate
	for k := range dom {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		sc.bind(root, dom[k])
		ok, err := e.programHolds(prog, sc)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, dom[k].surr)
		}
	}
	return out, nil
}

// applyAssigns applies a compiled assignment list to one entity.
func (e *Executor) applyAssigns(ctx context.Context, s value.Surrogate, cl *catalog.Class, assigns []assignment, params []value.Value, ev *events) error {
	for i := range assigns {
		as := &assigns[i]
		if as.err != nil {
			return as.err
		}
		if err := e.applyAssign(ctx, s, cl, as, params, ev); err != nil {
			return fmt.Errorf("%s := ...: %w", as.a.Attr, err)
		}
	}
	return nil
}

func (e *Executor) applyAssign(ctx context.Context, s value.Surrogate, cl *catalog.Class, as *assignment, params []value.Value, ev *events) error {
	attr, a := as.attr, as.a
	if attr.Kind == catalog.EVA {
		return e.assignEVA(ctx, s, as, params, ev)
	}
	// DVA.
	v, err := e.evalScalarFor(s, as, params)
	if err != nil {
		return err
	}
	cv, err := attr.Type.Coerce(v)
	if err != nil {
		return err
	}
	if attr.Options.MV {
		switch a.Mode {
		case ast.AssignInclude:
			err = e.m.IncludeMV(s, attr, cv)
		case ast.AssignExclude:
			err = e.m.ExcludeMV(s, attr, cv)
		default:
			if cv.IsNull() {
				err = e.m.SetMV(s, attr, nil)
			} else {
				err = e.m.SetMV(s, attr, []value.Value{cv})
			}
		}
		if err != nil {
			return err
		}
		ev.dva = append(ev.dva, dvaEvent{attr, s})
		return nil
	}
	if a.Mode != ast.AssignSet {
		return fmt.Errorf("INCLUDE/EXCLUDE apply to multi-valued attributes; %s is single-valued", attr)
	}
	if attr.Options.Required && cv.IsNull() {
		return fmt.Errorf("required attribute %s cannot be set to NULL", attr)
	}
	if err := e.m.SetSingle(s, attr, cv); err != nil {
		return err
	}
	ev.dva = append(ev.dva, dvaEvent{attr, s})
	return nil
}

// assignEVA applies §4.8's EVA assignment:
//
//	<eva> := [INCLUDE | EXCLUDE] <object name> WITH ( <boolean expn> )
//
// For single-valued assignment and inclusion, the object name is the range
// class; for exclusion it is the EVA itself, selecting among current
// partners. Assigning NULL clears a single-valued EVA.
func (e *Executor) assignEVA(ctx context.Context, s value.Surrogate, as *assignment, params []value.Value, ev *events) error {
	attr, a := as.attr, as.a
	record := func(t value.Surrogate) { ev.eva = append(ev.eva, evaEvent{attr, s, t}) }

	if a.Entity == nil {
		// NULL clears the EVA.
		if attr.Options.MV {
			cur, err := e.m.GetEVA(s, attr)
			if err != nil {
				return err
			}
			for _, t := range cur {
				if err := e.m.ExcludeEVA(s, attr, t); err != nil {
					return err
				}
				record(t)
			}
			return nil
		}
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		if err := e.m.SetEVA(s, attr, nil); err != nil {
			return err
		}
		for _, t := range cur {
			record(t)
		}
		return nil
	}

	if a.Mode == ast.AssignExclude {
		// Object name is the EVA: select among the current partners.
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		keep, err := e.filterWith(ctx, as.sel, cur, params)
		if err != nil {
			return err
		}
		for _, t := range keep {
			if err := e.m.ExcludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
		return nil
	}

	// Set / include: the object name is the range class (or a subclass).
	targets, err := e.selectAll(ctx, as.sel, params)
	if err != nil {
		return err
	}
	switch {
	case a.Mode == ast.AssignInclude:
		for _, t := range targets {
			if err := e.m.IncludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
	case attr.Options.MV:
		// Plain assignment to an MV EVA replaces the instance set.
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		for _, t := range cur {
			if err := e.m.ExcludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
		for _, t := range targets {
			if err := e.m.IncludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
	default:
		if len(targets) != 1 {
			return fmt.Errorf("assignment to single-valued %s selected %d entities, need exactly 1", attr, len(targets))
		}
		old, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		if err := e.m.SetEVA(s, attr, &targets[0]); err != nil {
			return err
		}
		for _, t := range old {
			record(t)
		}
		record(targets[0])
	}
	return nil
}

func nameMatchesAttr(name string, attr *catalog.Attribute) bool {
	return strings.EqualFold(name, attr.Name)
}

// filterWith runs a compiled filter over candidates for the statement
// whose literals are params.
func (e *Executor) filterWith(ctx context.Context, sel selection, candidates []value.Surrogate, params []value.Value) ([]value.Surrogate, error) {
	prog := sel.prog
	if prog == nil {
		return candidates, nil
	}
	sc := e.getScratch(prog.nNodes, params)
	defer e.putScratch(sc)
	dom := sc.getDomBuf()
	for _, s := range candidates {
		dom = append(dom, inst{surr: s})
	}
	defer sc.putDomBuf(dom)
	return e.selectFrom(ctx, prog, sc, dom)
}

// evalScalarFor evaluates a DVA assignment's right-hand side for one
// entity: a bare literal is the statement's value for its slot, anything
// else runs the compiled program with the entity as its perspective.
func (e *Executor) evalScalarFor(s value.Surrogate, as *assignment, params []value.Value) (value.Value, error) {
	prog := as.rhs
	if prog == nil {
		lit := as.a.Value.(*ast.Lit)
		return query.Arg(params, lit.Slot, lit.Val), nil
	}
	sc := e.getScratch(prog.nNodes, params)
	defer e.putScratch(sc)
	sc.bind(prog.tree.Roots[0], inst{surr: s})
	// Bind the remaining single-valued main nodes: the partner, or an
	// outer-join dummy when the EVA is NULL.
	for _, n := range prog.main {
		if n.IsRoot() {
			continue
		}
		dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
		it := inst{null: true}
		if len(dom) > 0 {
			it = dom[0]
		}
		sc.putDomBuf(dom)
		if err != nil {
			return value.Null, err
		}
		sc.bind(n, it)
	}
	return prog.target[0](sc)
}

// checkRequired verifies the REQUIRED option for the immediate attributes
// of newly acquired roles (§3.2.1).
func (e *Executor) checkRequired(s value.Surrogate, roles []*catalog.Class) error {
	for _, cl := range roles {
		for _, a := range cl.Attrs {
			if !a.Options.Required || a.Implicit {
				continue
			}
			switch {
			case a.Kind == catalog.EVA:
				ts, err := e.m.GetEVA(s, a)
				if err != nil {
					return err
				}
				if len(ts) == 0 {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			case a.Options.MV:
				vs, err := e.m.GetMV(s, a)
				if err != nil {
					return err
				}
				if len(vs) == 0 {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			default:
				v, err := e.m.GetSingle(s, a)
				if err != nil {
					return err
				}
				if v.IsNull() {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			}
		}
	}
	return nil
}
