// Package plan implements SIM's query optimizer (§5.1): it builds a query
// graph over the LUC objects of a bound query tree, enumerates access
// strategies, estimates each strategy's cost from catalog statistics
// (cardinalities, index availability, and the first/next-instance costs of
// each relationship's physical mapping), and picks the cheapest. A
// strategy that enumerates the perspective through an inverted
// relationship path ("pivot") breaks the DML's implicit perspective
// ordering; restoring it costs a sort, which the model charges — the
// paper's semantics-preservation test.
package plan

import (
	"fmt"
	"strings"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/query"
	"sim/internal/value"
)

// Bound is an optionally-set range bound with a literal value. Val is the
// value of the statement the plan was made for and Slot that literal's
// parameter slot (query.Lit.Slot); executions resolve the two with
// query.Arg.
type Bound struct {
	Set       bool
	Inclusive bool
	Val       value.Value
	Slot      int
}

// RootAccess is the chosen access path for one perspective root. Describe
// renders it for the statement whose parameter vector is params (nil: the
// statement the plan was made for).
type RootAccess interface {
	Describe(params []value.Value) string
	Cost() float64
}

// ScanAccess enumerates the whole class LUC.
type ScanAccess struct {
	Class *catalog.Class
	cost  float64
}

// Describe implements RootAccess.
func (a *ScanAccess) Describe([]value.Value) string {
	return "scan " + strings.ToLower(a.Class.Name)
}

// Cost implements RootAccess.
func (a *ScanAccess) Cost() float64 { return a.cost }

// UniqueAccess resolves the root by a unique-index point lookup. Key and
// Slot are the key literal's value and parameter slot, as in Bound.
type UniqueAccess struct {
	Attr *catalog.Attribute
	Key  value.Value
	Slot int
	cost float64
}

// Describe implements RootAccess.
func (a *UniqueAccess) Describe(params []value.Value) string {
	return fmt.Sprintf("unique lookup %s = %s", strings.ToLower(a.Attr.Name), query.Arg(params, a.Slot, a.Key))
}

// Cost implements RootAccess.
func (a *UniqueAccess) Cost() float64 { return a.cost }

// RangeAccess resolves the root by a secondary-index range scan.
type RangeAccess struct {
	Attr   *catalog.Attribute
	Lo, Hi Bound
	cost   float64
}

// Describe implements RootAccess.
func (a *RangeAccess) Describe([]value.Value) string {
	return fmt.Sprintf("index range on %s", strings.ToLower(a.Attr.Name))
}

// Cost implements RootAccess.
func (a *RangeAccess) Cost() float64 { return a.cost }

// PivotAccess enumerates the root by evaluating a selective predicate on a
// descendant node's index and walking the inverse EVA chain back to the
// perspective, then sorting the surrogate set to restore perspective order.
type PivotAccess struct {
	Start  *query.Node
	Attr   *catalog.Attribute
	Lo, Hi Bound
	// Up lists the EVA edges from Start back to the root: Up[0] is
	// Start.Edge, Up[len-1] the edge below the root. Traversal uses each
	// edge's inverse.
	Up   []*catalog.Attribute
	cost float64
}

// Describe implements RootAccess.
func (a *PivotAccess) Describe([]value.Value) string {
	return fmt.Sprintf("pivot from %s via index on %s (+sort)", a.Start.Label(), strings.ToLower(a.Attr.Name))
}

// Cost implements RootAccess.
func (a *PivotAccess) Cost() float64 { return a.cost }

// Plan is an executable strategy for a bound query tree.
type Plan struct {
	Tree   *query.Tree
	Access []RootAccess // parallel to Tree.Roots
	Est    float64      // total estimated cost
	// Cards lists the class cardinalities the costing read, each as its
	// bucket: the plan holds while every class stays in its bucket.
	Cards []Card
}

// Card is one class cardinality a plan's costing read, kept as its size
// bucket (luc.SizeBucket). The costs the optimizer compares move with the
// order of magnitude of a class, so a plan is re-made when a class it
// costed leaves its bucket, not on every insert.
type Card struct {
	Class  *catalog.Class
	Bucket int
}

// CardsHold reports whether every class in cards is still in its bucket,
// reading the counts through m.
func CardsHold(cards []Card, m *luc.Mapper) (bool, error) {
	for _, c := range cards {
		n, err := m.Count(c.Class)
		if err != nil {
			return false, err
		}
		if luc.SizeBucket(n) != c.Bucket {
			return false, nil
		}
	}
	return true, nil
}

// costing reads the statistics a plan's costing consults, recording the
// bucket of every class count it reads in the plan.
type costing struct {
	m *luc.Mapper
	p *Plan
}

// count returns the class's cardinality and records its bucket.
func (c costing) count(cl *catalog.Class) (int64, error) {
	n, err := c.m.Count(cl)
	if err != nil {
		return 0, err
	}
	for _, k := range c.p.Cards {
		if k.Class == cl {
			return n, nil
		}
	}
	c.p.Cards = append(c.p.Cards, Card{Class: cl, Bucket: luc.SizeBucket(n)})
	return n, nil
}

// Explain renders the chosen strategy for the statement whose parameter
// vector is params (nil: the statement the plan was made for).
func (p *Plan) Explain(params []value.Value) string {
	var b strings.Builder
	for i, r := range p.Tree.Roots {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", r.Label(), p.Access[i].Describe(params))
	}
	fmt.Fprintf(&b, " (est cost %.1f)", p.Est)
	return b.String()
}

// sarg is a sargable conjunct: attr(node) op lit.
type sarg struct {
	node *query.Node
	attr *catalog.Attribute
	op   ast.BinaryOp
	lit  *query.Lit
}

// Optimize picks the cheapest access strategy for each perspective root.
// Literals stay parameters of the plan (Bound.Slot, UniqueAccess.Slot)
// unless choosing it looked at their values: estMatches marks those
// query.Lit.Fixed, and the plan is then exact for these values only. The
// class counts the costing reads are recorded in Plan.Cards.
func Optimize(t *query.Tree, m *luc.Mapper) (*Plan, error) {
	sargs := extractSargs(t.Where)
	p := &Plan{Tree: t}
	c := costing{m: m, p: p}
	for _, root := range t.Roots {
		best, err := bestAccess(c, root, sargs)
		if err != nil {
			return nil, err
		}
		p.Access = append(p.Access, best)
		p.Est += best.Cost()
	}
	// Downstream traversal cost: every main/exist node contributes its
	// expected visits weighted by its relationship's first-instance cost.
	p.Est += traversalCost(t, c)
	return p, nil
}

// extractSargs splits the WHERE into top-level conjuncts and keeps the
// index-usable comparisons of the form <attr> op <literal>.
func extractSargs(e query.Expr) []sarg {
	var out []sarg
	var conj func(e query.Expr)
	conj = func(e query.Expr) {
		b, ok := e.(*query.Binary)
		if !ok {
			return
		}
		if b.Op == ast.OpAnd {
			conj(b.L)
			conj(b.R)
			return
		}
		attr, lit, op, ok := sargParts(b)
		if !ok {
			return
		}
		out = append(out, sarg{node: attr.Node, attr: attr.Attr, op: op, lit: lit})
	}
	conj(e)
	return out
}

// sargParts normalizes a comparison to attr-op-lit form, flipping the
// operator when the literal is on the left.
func sargParts(b *query.Binary) (*query.AttrRef, *query.Lit, ast.BinaryOp, bool) {
	switch b.Op {
	case ast.OpEQ, ast.OpLT, ast.OpLE, ast.OpGT, ast.OpGE:
	default:
		return nil, nil, 0, false
	}
	if a, ok := b.L.(*query.AttrRef); ok {
		if l, ok := b.R.(*query.Lit); ok && a.Attr.Kind == catalog.DVA && !a.Attr.Options.MV {
			return a, l, b.Op, true
		}
	}
	if a, ok := b.R.(*query.AttrRef); ok {
		if l, ok := b.L.(*query.Lit); ok && a.Attr.Kind == catalog.DVA && !a.Attr.Options.MV {
			return a, l, flip(b.Op), true
		}
	}
	return nil, nil, 0, false
}

func flip(op ast.BinaryOp) ast.BinaryOp {
	switch op {
	case ast.OpLT:
		return ast.OpGT
	case ast.OpLE:
		return ast.OpGE
	case ast.OpGT:
		return ast.OpLT
	case ast.OpGE:
		return ast.OpLE
	}
	return op
}

func bounds(op ast.BinaryOp, l *query.Lit) (lo, hi Bound) {
	b := Bound{Set: true, Val: l.Val, Slot: l.Slot}
	switch op {
	case ast.OpEQ:
		b.Inclusive = true
		lo, hi = b, b
	case ast.OpLT:
		hi = b
	case ast.OpLE:
		b.Inclusive = true
		hi = b
	case ast.OpGT:
		lo = b
	case ast.OpGE:
		b.Inclusive = true
		lo = b
	}
	return lo, hi
}

// probeLimit bounds the optimizer's index-probing selectivity estimate.
const probeLimit = 128

// estMatches estimates how many index entries satisfy a sarg, probing the
// index up to probeLimit entries and falling back to fixed heuristics for
// wider predicates. A probe makes the estimate — and every cost built on
// it — a function of the literal's value, so the literal is marked Fixed.
func estMatches(m *luc.Mapper, s sarg, classCard int64) (float64, error) {
	if classCard < 1 {
		classCard = 1
	}
	if s.op == ast.OpEQ && s.attr.Options.Unique {
		return 1, nil
	}
	s.lit.Fixed = true
	lo, hi := bounds(s.op, s.lit)
	n, capped, err := m.IndexCountApprox(s.attr, lucIdxBound(lo), lucIdxBound(hi), probeLimit)
	if err != nil {
		return 0, err
	}
	if !capped {
		return float64(n), nil
	}
	// Beyond the probe horizon: the classic System-R style heuristics —
	// equality 1/10, one-sided inequality 1/2.
	est := float64(classCard) / 2
	if s.op == ast.OpEQ {
		est = float64(classCard) / 10
	}
	if est < float64(n) {
		est = float64(n)
	}
	return est, nil
}

func lucIdxBound(b Bound) luc.Bound {
	return luc.Bound{Set: b.Set, Inclusive: b.Inclusive, Value: b.Val}
}

// sortCostPerEntry weights the in-memory surrogate sort restoring
// perspective order, relative to one block access.
const sortCostPerEntry = 0.05

func bestAccess(c costing, root *query.Node, sargs []sarg) (RootAccess, error) {
	m := c.m
	n, err := c.count(root.Class)
	if err != nil {
		return nil, err
	}
	card := float64(n)
	if card < 1 {
		card = 1
	}
	var best RootAccess = &ScanAccess{Class: root.Class, cost: card}

	consider := func(a RootAccess) {
		if a.Cost() < best.Cost() {
			best = a
		}
	}

	for _, s := range sargs {
		if !m.HasIndex(s.attr) {
			continue
		}
		if s.node == root {
			if s.op == ast.OpEQ && s.attr.Options.Unique {
				consider(&UniqueAccess{Attr: s.attr, Key: s.lit.Val, Slot: s.lit.Slot, cost: 2})
				continue
			}
			lo, hi := bounds(s.op, s.lit)
			k, err := estMatches(m, s, n)
			if err != nil {
				return nil, err
			}
			// Index entries plus the random record fetch per match.
			consider(&RangeAccess{Attr: s.attr, Lo: lo, Hi: hi, cost: 1 + k*2.2})
			continue
		}
		// Pivot: the predicate sits on a descendant reachable through an
		// invertible EVA chain from this root.
		up, ok := invertiblePath(s.node, root)
		if !ok {
			continue
		}
		startCard, err := c.count(s.node.Class)
		if err != nil {
			return nil, err
		}
		k, err := estMatches(m, s, startCard)
		if err != nil {
			return nil, err
		}
		cost := 1 + k*1.2 // index scan on the start class
		// Walk the inverse chain: each level multiplies by the inverse
		// fanout and pays per-instance traversal cost.
		set := k
		for _, edge := range up {
			first, next := m.TraversalCost(edge.Inverse)
			fan, err := inverseFanout(c, edge)
			if err != nil {
				return nil, err
			}
			cost += set * (first + next*fan)
			set *= fan
		}
		// Restoring perspective order: sort the surrogate set (§5.1's
		// reordering cost for a non-semantics-preserving transformation).
		cost += set * log2(set+2) * sortCostPerEntry
		lo, hi := bounds(s.op, s.lit)
		consider(&PivotAccess{Start: s.node, Attr: s.attr, Lo: lo, Hi: hi, Up: up, cost: cost})
	}
	return best, nil
}

// invertiblePath returns the EVA edges from node up to root (node-first),
// when every step is a non-transitive EVA.
func invertiblePath(n *query.Node, root *query.Node) ([]*catalog.Attribute, bool) {
	var up []*catalog.Attribute
	for cur := n; cur != root; cur = cur.Parent {
		if cur.Parent == nil || cur.Edge == nil || cur.Edge.Kind != catalog.EVA || cur.Transitive || cur.Sub {
			return nil, false
		}
		up = append(up, cur.Edge)
	}
	return up, true
}

// inverseFanout estimates partners per entity when traversing edge's
// inverse.
func inverseFanout(c costing, edge *catalog.Attribute) (float64, error) {
	inst, err := c.m.RelCount(edge)
	if err != nil {
		return 0, err
	}
	targets, err := c.count(edge.Range)
	if err != nil {
		return 0, err
	}
	if targets < 1 {
		return 1, nil
	}
	f := float64(inst) / float64(targets)
	if f < 0.1 {
		f = 0.1
	}
	return f, nil
}

// fanout estimates partners per entity when traversing edge forward.
func fanout(c costing, edge *catalog.Attribute) (float64, error) {
	if edge.Kind != catalog.EVA {
		return 3, nil // MV DVA heuristic
	}
	inst, err := c.m.RelCount(edge)
	if err != nil {
		return 0, err
	}
	owners, err := c.count(edge.Owner)
	if err != nil {
		return 0, err
	}
	if owners < 1 {
		return 1, nil
	}
	f := float64(inst) / float64(owners)
	if f < 0.1 {
		f = 0.1
	}
	return f, nil
}

// traversalCost sums expected relationship-instance accesses over the
// tree's non-root nodes, each weighted by the mapping-dependent first/next
// costs of §5.1 ("the I/O cost of accessing the first instance of a
// relationship will be 0 if the relationship is implemented by clustering
// and 1 block access if it is implemented by absolute addresses").
func traversalCost(t *query.Tree, cs costing) float64 {
	visits := make(map[*query.Node]float64)
	total := 0.0
	var rec func(n *query.Node, parentVisits float64) float64
	rec = func(n *query.Node, parentVisits float64) float64 {
		cost := 0.0
		for _, c := range n.Children {
			if c.Sub {
				continue
			}
			var fan float64
			if c.Edge != nil {
				fan, _ = fanout(cs, c.Edge)
			} else {
				fan = 1
			}
			first, next := 1.0, 0.2
			if c.Edge != nil && c.Edge.Kind == catalog.EVA {
				first, next = cs.m.TraversalCost(c.Edge)
			}
			cost += parentVisits * (first + next*fan)
			visits[c] = parentVisits * fan
			cost += rec(c, visits[c])
		}
		return cost
	}
	for _, r := range t.Roots {
		rootCard, _ := cs.count(r.Class)
		if rootCard < 1 {
			rootCard = 1
		}
		total += rec(r, float64(rootCard))
	}
	return total
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
