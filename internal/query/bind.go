package query

import (
	"fmt"
	"strings"

	"sim/internal/ast"
	"sim/internal/catalog"
)

type usage int

const (
	useTarget usage = iota
	useSelect
)

type binder struct {
	cat          *catalog.Catalog
	tree         *Tree
	byKey        map[string]*Node
	nextSub      int
	derivedDepth int
}

// Bind resolves and labels a Retrieve statement.
func Bind(cat *catalog.Catalog, stmt *ast.RetrieveStmt) (*Tree, error) {
	b := &binder{cat: cat, tree: &Tree{Mode: stmt.Mode}, byKey: make(map[string]*Node)}
	if err := b.setupRoots(stmt); err != nil {
		return nil, err
	}
	for _, t := range stmt.Targets {
		e, err := b.bindExpr(t, useTarget, nil)
		if err != nil {
			return nil, err
		}
		b.tree.Targets = append(b.tree.Targets, e)
		b.tree.Names = append(b.tree.Names, exprString(e))
		// The column name spells the target's literals out.
		Walk(e, func(x Expr) {
			if l, ok := x.(*Lit); ok {
				l.Fixed = true
			}
		})
	}
	for _, o := range stmt.OrderBy {
		e, err := b.bindExpr(o, useTarget, nil)
		if err != nil {
			return nil, err
		}
		b.tree.OrderBy = append(b.tree.OrderBy, e)
	}
	if stmt.Where != nil {
		e, err := b.bindExpr(stmt.Where, useSelect, nil)
		if err != nil {
			return nil, err
		}
		b.tree.Where = e
	}
	b.label()
	return b.tree, nil
}

// BindSelection builds a single-perspective tree for an update statement's
// WHERE clause, an entity selection, or a VERIFY assertion. The returned
// tree has no targets; the executor collects the root entities for which
// where holds.
func BindSelection(cat *catalog.Catalog, cl *catalog.Class, where ast.Expr) (*Tree, error) {
	b := &binder{cat: cat, tree: &Tree{}, byKey: make(map[string]*Node)}
	b.addRoot(cl, "")
	if where != nil {
		e, err := b.bindExpr(where, useSelect, nil)
		if err != nil {
			return nil, err
		}
		b.tree.Where = e
	}
	b.label()
	return b.tree, nil
}

// BindScalar builds a single-perspective tree whose only target is one
// expression — used to evaluate assignment right-hand sides such as
// "salary := 1.1 * salary" in the context of each modified entity.
func BindScalar(cat *catalog.Catalog, cl *catalog.Class, e ast.Expr) (*Tree, error) {
	b := &binder{cat: cat, tree: &Tree{}, byKey: make(map[string]*Node)}
	b.addRoot(cl, "")
	bound, err := b.bindExpr(e, useTarget, nil)
	if err != nil {
		return nil, err
	}
	b.tree.Targets = []Expr{bound}
	b.tree.Names = []string{exprString(bound)}
	b.label()
	return b.tree, nil
}

func (b *binder) addRoot(cl *catalog.Class, refVar string) *Node {
	key := "root:" + strings.ToLower(cl.Name)
	if refVar != "" {
		key = "var:" + strings.ToLower(refVar)
	}
	if n, ok := b.byKey[key]; ok {
		return n
	}
	label := strings.ToLower(cl.Name)
	if refVar != "" {
		label = strings.ToLower(refVar)
	}
	n := &Node{
		ID:    len(b.tree.Nodes),
		Class: cl,
		Type:  Type1,
		key:   key,
		label: label,
	}
	b.tree.Nodes = append(b.tree.Nodes, n)
	b.tree.Roots = append(b.tree.Roots, n)
	b.byKey[key] = n
	return n
}

// setupRoots installs the FROM-clause perspectives, or infers them from
// the class names terminating target qualifications when FROM is omitted
// (every §4 example without FROM qualifies its paths down to a class).
func (b *binder) setupRoots(stmt *ast.RetrieveStmt) error {
	if len(stmt.Perspectives) > 0 {
		for _, p := range stmt.Perspectives {
			cl := b.cat.Class(p.Class)
			if cl == nil {
				return fmt.Errorf("unknown perspective class %q", p.Class)
			}
			if p.Var != "" && b.cat.Class(p.Var) != nil {
				return fmt.Errorf("reference variable %q collides with a class name", p.Var)
			}
			b.addRoot(cl, p.Var)
		}
		return nil
	}
	// Inference: collect class-name tails from the target paths.
	found := false
	for _, t := range stmt.Targets {
		p, ok := t.(*ast.Path)
		if !ok {
			continue
		}
		tail := p.Steps[len(p.Steps)-1]
		if tail.Transitive || tail.Inverse {
			continue
		}
		if cl := b.cat.Class(tail.Name); cl != nil {
			b.addRoot(cl, "")
			found = true
		}
	}
	if !found {
		return fmt.Errorf("no FROM clause and no target qualification names a perspective class")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

func (b *binder) bindExpr(e ast.Expr, u usage, sub *subScope) (Expr, error) {
	switch x := e.(type) {
	case *ast.Lit:
		l := &Lit{Val: x.Val}
		// A derived attribute's literals belong to the schema text, not to
		// the statement: they take no slot.
		if x.Slot != 0 && b.derivedDepth == 0 {
			l.Slot = x.Slot
			b.tree.Lits = append(b.tree.Lits, l)
		}
		return l, nil
	case *ast.Path:
		return b.bindPath(x.Steps, u, sub)
	case *ast.Unary:
		inner, err := b.bindExpr(x.X, u, sub)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: inner}, nil
	case *ast.Binary:
		l, err := b.bindExpr(x.L, u, sub)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.R, u, sub)
		if err != nil {
			return nil, err
		}
		// Strong typing (§2): in comparisons, literals coerce to the
		// declared type of the opposite attribute — "HIGH" against a
		// symbolic attribute becomes the symbolic value, "1970-01-01"
		// against a date attribute becomes the date. An impossible
		// coercion is a bind-time error, discouraging "meaningless
		// associations between components of data".
		switch x.Op {
		case ast.OpEQ, ast.OpNEQ, ast.OpLT, ast.OpLE, ast.OpGT, ast.OpGE:
			if err := coerceLiteral(l, r); err != nil {
				return nil, err
			}
			if err := coerceLiteral(r, l); err != nil {
				return nil, err
			}
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *ast.Agg:
		sq, innermost, err := b.bindSubQuery(x.Inner, x.Outer, u)
		if err != nil {
			return nil, err
		}
		if x.Func == ast.AggCount && sq.Value == nil {
			sq.Value = innermost
		}
		if sq.Value == nil {
			return nil, fmt.Errorf("aggregate %s needs a value qualification", x.Func)
		}
		return &Agg{Func: x.Func, Distinct: x.Distinct, Sub: sq}, nil
	case *ast.Quantified:
		sq, innermost, err := b.bindSubQuery(x.Inner, x.Outer, u)
		if err != nil {
			return nil, err
		}
		if sq.Value == nil {
			sq.Value = innermost
		}
		return &Quant{Quant: x.Quant, Sub: sq}, nil
	case *ast.Isa:
		bound, err := b.bindPath(x.Entity.Steps, u, sub)
		if err != nil {
			return nil, err
		}
		er, ok := bound.(*EntityRef)
		if !ok {
			return nil, fmt.Errorf("left side of ISA must denote an entity, not %s", exprString(bound))
		}
		cl := b.cat.Class(x.Class)
		if cl == nil {
			return nil, fmt.Errorf("unknown class %q in ISA", x.Class)
		}
		if !catalog.SameHierarchy(er.Node.Class, cl) {
			return nil, fmt.Errorf("ISA class %s is not in %s's hierarchy", cl.Name, er.Node.Class.Name)
		}
		return &Isa{Node: er.Node, Class: cl}, nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// coerceLiteral rewrites lit (when it is a literal) to the declared type
// of the expression on the other side of a comparison.
func coerceLiteral(lit, other Expr) error {
	l, ok := lit.(*Lit)
	if !ok || l.Val.IsNull() {
		return nil
	}
	t := declaredType(other)
	if t == nil {
		return nil
	}
	v, err := t.Coerce(l.Val)
	if err != nil {
		return err
	}
	l.Val, l.Type = v, t
	return nil
}

// declaredType finds the catalog type an expression's values carry, when
// determinable: attribute references, MV-DVA value references, and MIN/MAX
// aggregates or quantifiers over them.
func declaredType(e Expr) *catalog.DataType {
	switch x := e.(type) {
	case *AttrRef:
		if x.Attr.Kind == catalog.DVA {
			return x.Attr.Type
		}
	case *ValueRef:
		if x.Node.Edge != nil && x.Node.Edge.Kind == catalog.DVA {
			return x.Node.Edge.Type
		}
	case *Agg:
		if x.Func == ast.AggMin || x.Func == ast.AggMax {
			return declaredType(x.Sub.Value)
		}
	case *Quant:
		return declaredType(x.Sub.Value)
	}
	return nil
}

// subScope marks binding inside an aggregate/quantifier: fresh nodes.
type subScope struct{ id int }

// bindPath resolves a qualification chain (steps outermost-first) to a
// bound expression.
func (b *binder) bindPath(steps []ast.PathStep, u usage, sub *subScope) (Expr, error) {
	ctx, curClass, rest, err := b.findContext(steps, sub)
	if err != nil {
		return nil, err
	}
	return b.walkSteps(ctx, curClass, rest, u, sub)
}

// expandDerived binds a derived attribute reference by qualified macro
// expansion: every path of the defining expression is re-qualified with
// the access path's suffix, then bound normally — so the expansion shares
// range variables with the rest of the query exactly as if the user had
// written the expression inline.
func (b *binder) expandDerived(attr *catalog.Attribute, suffix []ast.PathStep, u usage, sub *subScope) (Expr, error) {
	if b.derivedDepth >= 16 {
		return nil, fmt.Errorf("derived attribute %s: expansion too deep (recursive definition?)", attr)
	}
	b.derivedDepth++
	defer func() { b.derivedDepth-- }()
	return b.bindExpr(b.qualifyExpr(attr.Expr, suffix), u, sub)
}

// qualifyExpr deep-copies e with suffix appended to every qualification,
// anchoring the expression at the access point.
func (b *binder) qualifyExpr(e ast.Expr, suffix []ast.PathStep) ast.Expr {
	appendSteps := func(steps []ast.PathStep) []ast.PathStep {
		out := make([]ast.PathStep, 0, len(steps)+len(suffix))
		out = append(out, steps...)
		return append(out, suffix...)
	}
	switch x := e.(type) {
	case *ast.Lit:
		return x
	case *ast.Path:
		return &ast.Path{P: x.P, Steps: appendSteps(x.Steps)}
	case *ast.Binary:
		return &ast.Binary{P: x.P, Op: x.Op, L: b.qualifyExpr(x.L, suffix), R: b.qualifyExpr(x.R, suffix)}
	case *ast.Unary:
		return &ast.Unary{P: x.P, Op: x.Op, X: b.qualifyExpr(x.X, suffix)}
	case *ast.Agg:
		out := *x
		out.Outer = b.qualifyOuter(x.Inner, x.Outer, suffix)
		return &out
	case *ast.Quantified:
		out := *x
		out.Outer = b.qualifyOuter(x.Inner, x.Outer, suffix)
		return &out
	case *ast.Isa:
		return &ast.Isa{P: x.P, Entity: &ast.Path{P: x.Entity.P, Steps: appendSteps(x.Entity.Steps)}, Class: x.Class}
	}
	return e
}

// qualifyOuter re-anchors a subquery's outer qualification. A standalone
// whole-class aggregate (AVG(Salary of Instructor)) stays standalone.
func (b *binder) qualifyOuter(inner *ast.Path, outer, suffix []ast.PathStep) []ast.PathStep {
	if len(outer) > 0 {
		out := make([]ast.PathStep, 0, len(outer)+len(suffix))
		out = append(out, outer...)
		return append(out, suffix...)
	}
	tail := inner.Steps[len(inner.Steps)-1]
	if !tail.Transitive && !tail.Inverse && b.cat.Class(tail.Name) != nil {
		return nil // standalone scan
	}
	return append([]ast.PathStep(nil), suffix...)
}

// findContext locates the range variable a path hangs off: an explicit
// perspective/reference-variable tail, or — when the qualification is cut
// short (§4.2) — the unique root or bound node that can resolve the tail.
func (b *binder) findContext(steps []ast.PathStep, sub *subScope) (*Node, *catalog.Class, []ast.PathStep, error) {
	tail := steps[len(steps)-1]
	if !tail.Transitive && !tail.Inverse {
		for _, r := range b.tree.Roots {
			key := strings.TrimPrefix(r.key, "root:")
			isVar := strings.HasPrefix(r.key, "var:")
			if isVar {
				key = strings.TrimPrefix(r.key, "var:")
			}
			if strings.EqualFold(tail.Name, key) ||
				(!isVar && strings.EqualFold(tail.Name, r.Class.Name)) {
				curClass := r.Class
				if tail.As != "" {
					var err error
					curClass, err = b.roleClass(r.Class, tail.As)
					if err != nil {
						return nil, nil, nil, err
					}
				}
				return r, curClass, steps[:len(steps)-1], nil
			}
		}
	}
	// Shortcut completion: the whole path is attributes; find the context
	// able to resolve the tail step. Roots are preferred; otherwise any
	// already-bound entity node, unambiguously.
	for _, r := range b.tree.Roots {
		if a, _ := b.resolveStepAttr(r.Class, tail); a != nil {
			return r, r.Class, steps, nil
		}
	}
	var cands []*Node
	for _, n := range b.tree.Nodes {
		if n.IsValue || n.Sub || n.IsRoot() {
			continue
		}
		if a, _ := b.resolveStepAttr(n.Class, tail); a != nil {
			cands = append(cands, n)
		}
	}
	switch len(cands) {
	case 1:
		return cands[0], cands[0].Class, steps, nil
	case 0:
		return nil, nil, nil, fmt.Errorf("cannot resolve %q against any perspective", tail.Name)
	}
	return nil, nil, nil, fmt.Errorf("qualification %q is ambiguous: resolvable from %s and %s", tail.Name, cands[0].label, cands[1].label)
}

// walkSteps descends the remaining qualification steps (outermost-first in
// rest) from ctx, creating or reusing edge nodes, and returns the bound
// expression for the outermost step.
func (b *binder) walkSteps(ctx *Node, curClass *catalog.Class, rest []ast.PathStep, u usage, sub *subScope) (Expr, error) {
	if len(rest) == 0 {
		b.mark(ctx, u)
		return &EntityRef{Node: ctx}, nil
	}
	cur := ctx
	for i := len(rest) - 1; i >= 1; i-- {
		step := rest[i]
		attr, err := b.resolveStepAttr(curClass, step)
		if err != nil {
			return nil, err
		}
		if attr == nil {
			return nil, fmt.Errorf("class %s has no attribute %q", curClass.Name, step.Name)
		}
		if attr.Kind != catalog.EVA {
			return nil, fmt.Errorf("cannot qualify through %s: %s values have no attributes", attr, attr.Kind)
		}
		cur, err = b.edgeNode(cur, attr, step, sub)
		if err != nil {
			return nil, err
		}
		curClass = cur.Class
	}
	terminal := rest[0]
	attr, err := b.resolveStepAttr(curClass, terminal)
	if err != nil {
		return nil, err
	}
	if attr == nil {
		return nil, fmt.Errorf("class %s has no attribute %q", curClass.Name, terminal.Name)
	}
	switch {
	case attr.Kind == catalog.Derived:
		if terminal.Transitive {
			return nil, fmt.Errorf("transitive closure needs an EVA, not derived %s", attr)
		}
		return b.expandDerived(attr, pathSuffix(cur), u, sub)
	case attr.Kind == catalog.EVA:
		n, err := b.edgeNode(cur, attr, terminal, sub)
		if err != nil {
			return nil, err
		}
		b.mark(n, u)
		return &EntityRef{Node: n}, nil
	case attr.Options.MV: // MV DVA or MV subrole: a value node
		n, err := b.edgeNode(cur, attr, terminal, sub)
		if err != nil {
			return nil, err
		}
		b.mark(n, u)
		return &ValueRef{Node: n}, nil
	default:
		if terminal.Transitive {
			return nil, fmt.Errorf("transitive closure needs an EVA, not %s", attr)
		}
		b.mark(cur, u)
		return &AttrRef{Node: cur, Attr: attr}, nil
	}
}

// edgeNode creates or reuses the range variable for an EVA / MV-DVA edge.
func (b *binder) edgeNode(parent *Node, attr *catalog.Attribute, step ast.PathStep, sub *subScope) (*Node, error) {
	if parent.IsValue {
		return nil, fmt.Errorf("cannot traverse %q from a value", attr.Name)
	}
	if step.Transitive {
		if attr.Kind != catalog.EVA {
			return nil, fmt.Errorf("transitive closure needs an EVA, not %s", attr)
		}
		if !catalog.SameHierarchy(attr.Owner, attr.Range) {
			return nil, fmt.Errorf("transitive(%s) is not a cyclic chain: range %s is outside %s's hierarchy", attr.Name, attr.Range.Name, attr.Owner.Name)
		}
	}
	key := fmt.Sprintf("%s|%d", parent.key, attr.ID)
	if step.Transitive {
		key += ":t"
	}
	if step.As != "" {
		key += ":as:" + strings.ToLower(step.As)
	}
	if sub != nil {
		key = fmt.Sprintf("sub%d:%s", sub.id, key)
	} else if n, ok := b.byKey[key]; ok {
		return n, nil
	}
	cls := attr.Range // nil for DVA/subrole value nodes
	if step.As != "" {
		if attr.Kind != catalog.EVA {
			return nil, fmt.Errorf("role conversion AS %s applies to entities, not %s values", step.As, attr.Kind)
		}
		var err error
		cls, err = b.roleClass(attr.Range, step.As)
		if err != nil {
			return nil, err
		}
	}
	label := strings.ToLower(attr.Name)
	if step.Transitive {
		label = "transitive(" + label + ")"
	}
	if parent.label != "" {
		label += " of " + parent.label
	}
	n := &Node{
		ID:         len(b.tree.Nodes),
		Class:      cls,
		Parent:     parent,
		Edge:       attr,
		Transitive: step.Transitive,
		IsValue:    attr.Kind != catalog.EVA,
		Sub:        sub != nil,
		Type:       Type1,
		key:        key,
		label:      label,
	}
	b.tree.Nodes = append(b.tree.Nodes, n)
	parent.Children = append(parent.Children, n)
	if sub == nil {
		b.byKey[key] = n
	}
	return n, nil
}

// pathSuffix reconstructs the qualification from a bound node back to its
// perspective, used to anchor derived-attribute expansions at the access
// point.
func pathSuffix(cur *Node) []ast.PathStep {
	var steps []ast.PathStep
	for n := cur; n != nil; n = n.Parent {
		if n.IsRoot() {
			steps = append(steps, ast.PathStep{Name: n.label})
			break
		}
		step := ast.PathStep{Name: n.Edge.Name, Transitive: n.Transitive}
		if n.Edge.Implicit {
			// Implicit inverses have no user-visible name; address them
			// through INVERSE(<declared eva>).
			step.Name = n.Edge.Inverse.Name
			step.Inverse = true
		}
		if n.Edge.Kind == catalog.EVA && n.Class != nil && n.Class != n.Edge.Range {
			step.As = n.Class.Name
		}
		steps = append(steps, step)
	}
	return steps
}

// roleClass validates an AS conversion target.
func (b *binder) roleClass(from *catalog.Class, as string) (*catalog.Class, error) {
	cl := b.cat.Class(as)
	if cl == nil {
		return nil, fmt.Errorf("unknown class %q in AS conversion", as)
	}
	if !catalog.SameHierarchy(from, cl) {
		return nil, fmt.Errorf("cannot convert %s to %s: different hierarchies", from.Name, cl.Name)
	}
	return cl, nil
}

// resolveStepAttr resolves one step name against a class, handling the
// INVERSE(<eva>) form: the named EVA must point at (an ancestor or
// descendant of) the class, and the step denotes its inverse.
func (b *binder) resolveStepAttr(cl *catalog.Class, step ast.PathStep) (*catalog.Attribute, error) {
	if !step.Inverse {
		return catalog.ResolveAttr(cl, step.Name), nil
	}
	var found *catalog.Attribute
	for _, c := range b.cat.Classes() {
		a := c.Attr(step.Name)
		if a == nil || a.Kind != catalog.EVA || a.Implicit {
			continue
		}
		if a.Owner != c {
			continue // inherited copies are found on the owner
		}
		if catalog.IsAncestor(a.Range, cl) || catalog.IsAncestor(cl, a.Range) {
			if found != nil && found != a {
				return nil, fmt.Errorf("INVERSE(%s) is ambiguous", step.Name)
			}
			found = a
		}
	}
	if found == nil {
		return nil, fmt.Errorf("no EVA %q ranges over %s", step.Name, cl.Name)
	}
	return found.Inverse, nil
}

func (b *binder) mark(n *Node, u usage) {
	if u == useTarget {
		n.usedTarget = true
	} else {
		n.usedSelect = true
	}
}

// ---------------------------------------------------------------------------
// Subqueries (aggregates, quantifiers)
// ---------------------------------------------------------------------------

// bindSubQuery binds an aggregate/quantifier body. inner is the
// parenthesized path (binding broken: fresh nodes); outer the trailing
// qualification resolved in the enclosing scope. It returns the subquery
// and, when inner denotes entities/values rather than a scalar attribute,
// the reference usable as the aggregated value.
func (b *binder) bindSubQuery(inner *ast.Path, outer []ast.PathStep, u usage) (*SubQuery, Expr, error) {
	sub := &subScope{id: b.nextSub}
	b.nextSub++

	// Resolve the anchor from the outer qualification.
	var anchor *Node
	var anchorClass *catalog.Class
	if len(outer) > 0 {
		e, err := b.bindPath(outer, u, nil)
		if err != nil {
			return nil, nil, err
		}
		er, ok := e.(*EntityRef)
		if !ok {
			return nil, nil, fmt.Errorf("aggregate outer qualification must denote entities")
		}
		anchor = er.Node
		anchorClass = er.Node.Class
	}

	steps := inner.Steps
	tail := steps[len(steps)-1]
	var chainRoot *Node
	var rest []ast.PathStep

	if !tail.Transitive && !tail.Inverse && b.cat.Class(tail.Name) != nil && anchor == nil {
		// Standalone scan: AVG(Salary of Instructor).
		cl := b.cat.Class(tail.Name)
		if tail.As != "" {
			var err error
			cl, err = b.roleClass(cl, tail.As)
			if err != nil {
				return nil, nil, err
			}
		}
		chainRoot = &Node{
			ID:    len(b.tree.Nodes),
			Class: cl,
			Sub:   true,
			Type:  Type1,
			key:   fmt.Sprintf("sub%d:scan:%s", sub.id, strings.ToLower(cl.Name)),
			label: strings.ToLower(cl.Name),
		}
		b.tree.Nodes = append(b.tree.Nodes, chainRoot)
		rest = steps[:len(steps)-1]
		anchorClass = cl
		anchor = chainRoot
	} else {
		// Anchored: resolve against the anchor, or complete against the
		// enclosing perspectives when no outer qualification was given.
		if anchor == nil {
			var err error
			var allSteps []ast.PathStep
			anchor, anchorClass, allSteps, err = b.findContext(steps, sub)
			if err != nil {
				return nil, nil, err
			}
			rest = allSteps
		} else {
			rest = steps
		}
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("aggregate over a bare perspective needs a qualification")
		}
		// The innermost remaining step hangs a fresh node off the anchor.
		i := len(rest) - 1
		step := rest[i]
		attr, err := b.resolveStepAttr(anchorClass, step)
		if err != nil {
			return nil, nil, err
		}
		if attr == nil {
			return nil, nil, fmt.Errorf("class %s has no attribute %q", anchorClass.Name, step.Name)
		}
		if attr.Kind == catalog.DVA && !attr.Options.MV {
			// Single-valued scalar directly on the anchor: empty chain.
			if i != 0 {
				return nil, nil, fmt.Errorf("cannot qualify through single-valued %s", attr)
			}
			b.mark(anchor, u)
			return &SubQuery{Value: &AttrRef{Node: anchor, Attr: attr}}, nil, nil
		}
		chainRoot, err = b.edgeNode(anchor, attr, step, sub)
		if err != nil {
			return nil, nil, err
		}
		rest = rest[:i]
	}

	// Walk any remaining steps inside the subquery scope.
	e, err := b.walkSteps(chainRoot, chainRoot.Class, rest, u, sub)
	if err != nil {
		return nil, nil, err
	}

	// Collect the fresh chain outermost-first by following parents.
	var chain []*Node
	refNode := chainRoot
	if er, ok := e.(*EntityRef); ok {
		refNode = er.Node
	} else if vr, ok := e.(*ValueRef); ok {
		refNode = vr.Node
	} else if ar, ok := e.(*AttrRef); ok {
		refNode = ar.Node
	}
	for n := refNode; n != nil && n.Sub; n = n.Parent {
		chain = append([]*Node{n}, chain...)
	}
	if len(chain) == 0 && chainRoot.Sub {
		chain = []*Node{chainRoot}
	}

	sq := &SubQuery{Chain: chain}
	switch x := e.(type) {
	case *AttrRef:
		sq.Value = x
		return sq, x, nil
	case *EntityRef, *ValueRef:
		// COUNT counts these directly; other aggregates over entity refs
		// are an error caught by the executor's type rules.
		return sq, e, nil
	}
	return nil, nil, fmt.Errorf("unsupported aggregate body")
}

// ---------------------------------------------------------------------------
// Labeling (§4.5)
// ---------------------------------------------------------------------------

func (b *binder) label() {
	var visit func(n *Node) (target, sel bool)
	visit = func(n *Node) (bool, bool) {
		target, sel := n.usedTarget, n.usedSelect
		for _, c := range n.Children {
			if c.Sub {
				continue
			}
			t, s := visit(c)
			target = target || t
			sel = sel || s
		}
		switch {
		case n.IsRoot():
			n.Type = Type1 // X1 is always TYPE 1
		case target && sel:
			n.Type = Type1
		case target:
			n.Type = Type3
		case sel:
			n.Type = Type2
		default:
			n.Type = Type1
		}
		return target, sel
	}
	for _, r := range b.tree.Roots {
		visit(r)
	}
}
