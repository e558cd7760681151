// Package query builds SIM query trees: it resolves qualifications against
// the perspective classes (§4.2), applies the implicit binding rules that
// map identically qualified paths to one range variable (§4.4), and labels
// every range variable TYPE 1, 2 or 3 to define the DAPLEX-style iteration
// semantics of §4.5.
package query

import (
	"fmt"
	"strings"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/value"
)

// NodeType is the §4.5 label of a range variable.
type NodeType int

// Node types. Type1 variables appear in both the target list and the
// selection expression (or are perspective roots); Type3 subtrees are
// target-only (outer-joined with null dummies when empty); Type2 subtrees
// are selection-only and existentially quantified.
const (
	Type1 NodeType = 1
	Type2 NodeType = 2
	Type3 NodeType = 3
)

func (t NodeType) String() string { return fmt.Sprintf("TYPE %d", int(t)) }

// Node is one range variable of the query tree. A node ranges over
// entities of a class (perspective roots and EVA edges) or over the values
// of a multi-valued DVA or subrole.
type Node struct {
	ID     int
	Class  *catalog.Class // resolution class (reflects AS role conversion)
	Parent *Node
	// Edge is the EVA, multi-valued DVA or multi-valued subrole leading
	// here from Parent; nil for perspective roots.
	Edge       *catalog.Attribute
	Transitive bool
	Children   []*Node
	Type       NodeType

	// IsValue marks nodes ranging over DVA/subrole values rather than
	// entities.
	IsValue bool

	// Sub marks nodes belonging to an aggregate/quantifier subquery;
	// they are excluded from the main iteration.
	Sub bool

	usedTarget bool
	usedSelect bool
	key        string
	label      string // printable qualification, for column naming
}

// IsRoot reports whether the node is a perspective root.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// Label returns the printable qualification of this node.
func (n *Node) Label() string { return n.label }

// Tree is a bound query.
type Tree struct {
	Roots   []*Node
	Nodes   []*Node // every node, main tree and subqueries
	Targets []Expr
	Names   []string // column names for tabular output
	OrderBy []Expr
	Where   Expr // nil when absent
	Mode    ast.OutputMode
	// Lits holds the literals that carry a parameter slot, in binding
	// order (see Lit.Slot).
	Lits []*Lit
}

// MainNodes returns the TYPE 1 and TYPE 3 nodes in depth-first order — the
// nesting order of the output loops (§4.5).
func (t *Tree) MainNodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Type == Type2 {
			return
		}
		out = append(out, n)
		for _, c := range n.Children {
			if !c.Sub {
				walk(c)
			}
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// ExistNodes returns the TYPE 2 nodes in depth-first order — the
// existentially quantified loops.
func (t *Tree) ExistNodes() []*Node {
	var out []*Node
	var walk func(n *Node, inType2 bool)
	walk = func(n *Node, inType2 bool) {
		in := inType2 || n.Type == Type2
		if in {
			out = append(out, n)
		}
		for _, c := range n.Children {
			if !c.Sub {
				walk(c, in)
			}
		}
	}
	for _, r := range t.Roots {
		walk(r, false)
	}
	return out
}

// ---------------------------------------------------------------------------
// Bound expressions
// ---------------------------------------------------------------------------

// Expr is a bound expression.
type Expr interface{ expr() }

// Lit is a literal. Val is the value bound from the statement the tree
// was built for. A literal lifted out of the statement text (an INT,
// NUMBER or STRING token, ast.Lit.Slot) also carries that slot, so that a
// plan cached for the statement's shape can run for another statement of
// the same shape: an execution that supplies a parameter vector reads
// params[Slot-1] instead of Val (see Arg).
type Lit struct {
	Val  value.Value
	Slot int // 1-based; 0 when the literal has no slot
	// Type is the declared type the literal was coerced to (nil when none
	// applied): every value for the slot goes through Type.Coerce first.
	Type *catalog.DataType
	// Fixed marks a literal whose value shaped the tree or the plan beyond
	// being an operand — it is spelled in a column name, or the optimizer
	// probed an index with it — so the plan holds for this value only.
	Fixed bool
}

// Arg resolves a literal operand for one execution: the executing
// statement's value for the slot when a parameter vector is supplied,
// the literal's own bound value otherwise.
func Arg(params []value.Value, slot int, own value.Value) value.Value {
	// One unsigned compare covers slot 0 (no slot) and params == nil.
	if uint(slot-1) < uint(len(params)) {
		return params[slot-1]
	}
	return own
}

// AttrRef reads a single-valued DVA or single-valued subrole of the node's
// current entity.
type AttrRef struct {
	Node *Node
	Attr *catalog.Attribute
	// As is the role-conversion class in effect for this access (nil when
	// none); access on an entity lacking the role yields NULL.
	As *catalog.Class
}

// EntityRef is the node's current entity (a surrogate value; NULL for the
// outer-join dummy).
type EntityRef struct{ Node *Node }

// ValueRef is the current value of a value node (MV DVA / MV subrole).
type ValueRef struct{ Node *Node }

// Binary is a bound binary operation.
type Binary struct {
	Op   ast.BinaryOp
	L, R Expr
}

// Unary is a bound NOT or negation.
type Unary struct {
	Op ast.UnaryOp
	X  Expr
}

// SubQuery is the broken-binding iteration scope of an aggregate or
// quantifier (§4.4: "implicit binding of names is broken in … aggregate
// functions, transitive closure or quantifiers").
type SubQuery struct {
	// Chain lists the fresh nodes outermost-first. Chain[0].Parent is the
	// anchor in the enclosing tree (nil for a standalone class scan).
	Chain []*Node
	// Value is evaluated at the innermost nesting for each combination.
	Value Expr
}

// Anchor returns the enclosing-tree node the subquery hangs off, or nil.
func (s *SubQuery) Anchor() *Node {
	if len(s.Chain) == 0 {
		return nil
	}
	return s.Chain[0].Parent
}

// Agg is a bound aggregate.
type Agg struct {
	Func     ast.AggFunc
	Distinct bool
	Sub      *SubQuery
}

// Quant is a bound quantifier, usable only as a comparison operand.
type Quant struct {
	Quant ast.Quant
	Sub   *SubQuery
}

// Isa tests whether the node's current entity holds a role in Class.
type Isa struct {
	Node  *Node
	Class *catalog.Class
}

func (*Lit) expr()       {}
func (*AttrRef) expr()   {}
func (*EntityRef) expr() {}
func (*ValueRef) expr()  {}
func (*Binary) expr()    {}
func (*Unary) expr()     {}
func (*Agg) expr()       {}
func (*Quant) expr()     {}
func (*Isa) expr()       {}

// Walk visits every expression node of e in preorder.
func Walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Binary:
		Walk(x.L, f)
		Walk(x.R, f)
	case *Unary:
		Walk(x.X, f)
	case *Agg:
		Walk(x.Sub.Value, f)
	case *Quant:
		Walk(x.Sub.Value, f)
	}
}

// exprString renders a bound expression for column naming.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *Lit:
		return x.Val.String()
	case *AttrRef:
		if x.Node.label == "" {
			return strings.ToLower(x.Attr.Name)
		}
		return strings.ToLower(x.Attr.Name) + " of " + x.Node.label
	case *EntityRef:
		return x.Node.label
	case *ValueRef:
		return x.Node.label
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(x.L), x.Op, exprString(x.R))
	case *Unary:
		if x.Op == ast.OpNot {
			return "not " + exprString(x.X)
		}
		return "-" + exprString(x.X)
	case *Agg:
		return fmt.Sprintf("%s(%s)", x.Func, exprString(x.Sub.Value))
	case *Quant:
		return fmt.Sprintf("%s(%s)", x.Quant, exprString(x.Sub.Value))
	case *Isa:
		return fmt.Sprintf("%s isa %s", x.Node.label, strings.ToLower(x.Class.Name))
	}
	return "?"
}
