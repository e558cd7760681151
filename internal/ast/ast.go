// Package ast defines the abstract syntax of SIM schema definitions (DDL)
// and data manipulation statements (DML).
package ast

import (
	"strings"

	"sim/internal/token"
	"sim/internal/value"
)

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// Schema is a parsed sequence of DDL declarations.
type Schema struct {
	Decls []Decl
}

// Decl is a DDL declaration: Type, Class, Subclass or Verify.
type Decl interface {
	Node
	declNode()
}

// TypeDecl declares a named user type: Type degree = symbolic (BS, MBA, ...).
type TypeDecl struct {
	P    token.Pos
	Name string
	Def  TypeExpr
}

// ClassDecl declares a base class or subclass with its immediate attributes.
type ClassDecl struct {
	P      token.Pos
	Name   string
	Supers []string // empty for a base class
	Attrs  []AttrDecl
}

// VerifyDecl declares a class integrity assertion:
// Verify v1 on Student assert <expr> else "message".
type VerifyDecl struct {
	P       token.Pos
	Name    string
	Class   string
	Assert  Expr
	ElseMsg string
}

func (d *TypeDecl) Pos() token.Pos   { return d.P }
func (d *ClassDecl) Pos() token.Pos  { return d.P }
func (d *VerifyDecl) Pos() token.Pos { return d.P }

func (*TypeDecl) declNode()   {}
func (*ClassDecl) declNode()  {}
func (*VerifyDecl) declNode() {}

// AttrOptions collects the attribute options of §3.2.1.
type AttrOptions struct {
	Required bool
	Unique   bool
	MV       bool
	Distinct bool
	Max      int // 0 means unbounded
}

// AttrDecl declares one immediate attribute of a class. For an EVA the
// declared type is a NamedType naming the range class and Inverse names the
// inverse EVA; for a DVA Inverse is empty. A derived attribute (§6 "work
// under progress … derived attributes") carries its defining expression
// instead of a type.
type AttrDecl struct {
	P       token.Pos
	Name    string
	Type    TypeExpr
	Inverse string // "inverse is <name>"; empty for DVAs
	Derived Expr   // non-nil for derived attributes
	Options AttrOptions
}

func (a *AttrDecl) Pos() token.Pos { return a.P }

// TypeExpr is the syntax of a declared type.
type TypeExpr interface {
	Node
	typeNode()
}

// NamedType refers to a user type or a class (making the attribute an EVA).
type NamedType struct {
	P    token.Pos
	Name string
}

// IntType is integer with optional permitted ranges: integer (1..20, 60001..99999).
type IntType struct {
	P      token.Pos
	Ranges [][2]int64 // inclusive; empty means unrestricted
}

// NumberType is a fixed-point numeric: number[9,2].
type NumberType struct {
	P                token.Pos
	Precision, Scale int
}

// StringType is a bounded string: string[30]. Len 0 means unbounded.
type StringType struct {
	P   token.Pos
	Len int
}

// DateType is the calendar date type.
type DateType struct{ P token.Pos }

// BoolType is the boolean type.
type BoolType struct{ P token.Pos }

// RealType is an unconstrained floating numeric ("real").
type RealType struct{ P token.Pos }

// SymbolicType is an enumerated type: symbolic (BS, MBA, MS, PHD).
type SymbolicType struct {
	P      token.Pos
	Labels []string
}

// SubroleType declares a system-maintained subrole attribute whose value
// set names the immediate subclasses: subrole (student, instructor).
type SubroleType struct {
	P       token.Pos
	Classes []string
}

func (t *NamedType) Pos() token.Pos    { return t.P }
func (t *IntType) Pos() token.Pos      { return t.P }
func (t *NumberType) Pos() token.Pos   { return t.P }
func (t *StringType) Pos() token.Pos   { return t.P }
func (t *DateType) Pos() token.Pos     { return t.P }
func (t *BoolType) Pos() token.Pos     { return t.P }
func (t *RealType) Pos() token.Pos     { return t.P }
func (t *SymbolicType) Pos() token.Pos { return t.P }
func (t *SubroleType) Pos() token.Pos  { return t.P }

func (*NamedType) typeNode()    {}
func (*IntType) typeNode()      {}
func (*NumberType) typeNode()   {}
func (*StringType) typeNode()   {}
func (*DateType) typeNode()     {}
func (*BoolType) typeNode()     {}
func (*RealType) typeNode()     {}
func (*SymbolicType) typeNode() {}
func (*SubroleType) typeNode()  {}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// Stmt is a DML statement.
type Stmt interface {
	Node
	stmtNode()
}

// OutputMode selects the output structuring of a Retrieve (§4.5).
type OutputMode int

// Output modes.
const (
	OutputTable OutputMode = iota
	OutputTableDistinct
	OutputStructure
)

func (m OutputMode) String() string {
	switch m {
	case OutputTableDistinct:
		return "TABLE DISTINCT"
	case OutputStructure:
		return "STRUCTURE"
	}
	return "TABLE"
}

// PerspectiveRef names one perspective class, optionally with a reference
// variable for multi-perspective queries: From student s1, student s2.
type PerspectiveRef struct {
	P     token.Pos
	Class string
	Var   string // optional
}

// RetrieveStmt is [FROM ...] RETRIEVE ... [ORDER BY ...] [WHERE ...].
type RetrieveStmt struct {
	P            token.Pos
	Perspectives []PerspectiveRef // empty: inferred from the first target path
	Mode         OutputMode
	Targets      []Expr
	OrderBy      []Expr
	Where        Expr // nil if absent
}

// AssignMode distinguishes plain assignment from INCLUDE/EXCLUDE on
// multi-valued attributes (§4.8).
type AssignMode int

// Assignment modes.
const (
	AssignSet AssignMode = iota
	AssignInclude
	AssignExclude
)

func (m AssignMode) String() string {
	switch m {
	case AssignInclude:
		return "include"
	case AssignExclude:
		return "exclude"
	}
	return "set"
}

// Assign is one element of an assignment list. For DVA assignment Value is
// a scalar expression. For EVA assignment the paper's form is
//
//	<eva> := [INCLUDE|EXCLUDE] <object name> WITH ( <boolean expn> )
//
// captured by Entity. Assigning NULL to an EVA clears it.
type Assign struct {
	P      token.Pos
	Attr   string
	Mode   AssignMode
	Value  Expr       // scalar RHS; nil when Entity is set
	Entity *EntitySel // EVA RHS; nil for scalar assignment
}

// EntitySel selects entities of a class (or of the target EVA itself, for
// EXCLUDE) by a boolean expression: course with (title = "Algebra I").
type EntitySel struct {
	P     token.Pos
	Name  string // class name, or the EVA's own name for exclusions
	Where Expr   // nil means all
}

// InsertStmt is INSERT <class> [FROM <class> WHERE <expn>] [(assigns)].
type InsertStmt struct {
	P         token.Pos
	Class     string
	FromClass string // empty when no FROM clause
	FromWhere Expr
	Assigns   []Assign
}

// ModifyStmt is MODIFY <class> (assigns) WHERE <expn>.
type ModifyStmt struct {
	P       token.Pos
	Class   string
	Assigns []Assign
	Where   Expr
}

// DeleteStmt is DELETE <class> WHERE <expn>.
type DeleteStmt struct {
	P     token.Pos
	Class string
	Where Expr
}

// BeginStmt is BEGIN [TRANSACTION]: open an explicit transaction. Later
// statements join it until COMMIT or ROLLBACK.
type BeginStmt struct {
	P token.Pos
}

// CommitStmt is COMMIT [TRANSACTION]: durably apply the open transaction.
type CommitStmt struct {
	P token.Pos
}

// RollbackStmt is ROLLBACK [TRANSACTION]: discard the open transaction.
type RollbackStmt struct {
	P token.Pos
}

func (s *RetrieveStmt) Pos() token.Pos { return s.P }
func (s *InsertStmt) Pos() token.Pos   { return s.P }
func (s *ModifyStmt) Pos() token.Pos   { return s.P }
func (s *DeleteStmt) Pos() token.Pos   { return s.P }
func (s *BeginStmt) Pos() token.Pos    { return s.P }
func (s *CommitStmt) Pos() token.Pos   { return s.P }
func (s *RollbackStmt) Pos() token.Pos { return s.P }

func (*RetrieveStmt) stmtNode() {}
func (*InsertStmt) stmtNode()   {}
func (*ModifyStmt) stmtNode()   {}
func (*DeleteStmt) stmtNode()   {}
func (*BeginStmt) stmtNode()    {}
func (*CommitStmt) stmtNode()   {}
func (*RollbackStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is a DML expression.
type Expr interface {
	Node
	exprNode()
}

// PathStep is one element of a qualification chain. Transitive marks
// transitive(<eva>); As carries role conversion (teaching-load of student
// AS teaching-assistant — the AS attaches to the step it follows).
type PathStep struct {
	Name       string
	As         string // role conversion target class; empty if none
	Transitive bool
	Inverse    bool // INVERSE(<eva>) form
}

// Path is a qualification: Steps are ordered outermost-first, i.e.
// "Name of Advisor of Student" is [Name, Advisor, Student]. A bare
// identifier is a Path of one step.
type Path struct {
	P     token.Pos
	Steps []PathStep
}

func (p *Path) Pos() token.Pos { return p.P }
func (*Path) exprNode()        {}

// String renders the path in DML syntax.
func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteString(" of ")
		}
		if s.Transitive {
			b.WriteString("transitive(")
		}
		if s.Inverse {
			b.WriteString("inverse(")
		}
		b.WriteString(s.Name)
		if s.Inverse {
			b.WriteString(")")
		}
		if s.Transitive {
			b.WriteString(")")
		}
		if s.As != "" {
			b.WriteString(" as ")
			b.WriteString(s.As)
		}
	}
	return b.String()
}

// Lit is a literal value.
type Lit struct {
	P   token.Pos
	Val value.Value
	// Slot numbers the statement's INT, NUMBER and STRING tokens from 1 in
	// source order — the order lexer.Normalize lifts them in. Zero for
	// literals that are keywords (TRUE, NULL, CURRENT DATE).
	Slot int
}

func (l *Lit) Pos() token.Pos { return l.P }
func (*Lit) exprNode()        {}

// BinaryOp enumerates binary operators in expressions.
type BinaryOp int

// Binary operators.
const (
	OpAnd BinaryOp = iota
	OpOr
	OpEQ
	OpNEQ
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLike
)

func (o BinaryOp) String() string {
	return [...]string{"and", "or", "=", "neq", "<", "<=", ">", ">=", "+", "-", "*", "/", "like"}[o]
}

// Binary is a binary operation.
type Binary struct {
	P    token.Pos
	Op   BinaryOp
	L, R Expr
}

func (b *Binary) Pos() token.Pos { return b.P }
func (*Binary) exprNode()        {}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNot UnaryOp = iota
	OpNeg
)

// Unary is NOT <expr> or -<expr>.
type Unary struct {
	P  token.Pos
	Op UnaryOp
	X  Expr
}

func (u *Unary) Pos() token.Pos { return u.P }
func (*Unary) exprNode()        {}

// AggFunc enumerates aggregate functions (§4.6).
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[f]
}

// Agg is an aggregate with delimited scope: AVG(Salary of
// Instructors-employed) of Department. Inner is the path inside the
// parentheses; Outer the qualification following them (may be empty).
// Binding of names inside Inner is broken from the enclosing query (§4.4).
type Agg struct {
	P        token.Pos
	Func     AggFunc
	Distinct bool
	Inner    *Path
	Outer    []PathStep
}

func (a *Agg) Pos() token.Pos { return a.P }
func (*Agg) exprNode()        {}

// Quant enumerates quantifiers.
type Quant int

// Quantifiers.
const (
	QSome Quant = iota
	QAll
	QNo
)

func (q Quant) String() string { return [...]string{"some", "all", "no"}[q] }

// Quantified wraps a path for use as a comparison operand:
// assigned-department neq some(major-department of advisees). Like Agg its
// binding is broken, and it may carry a trailing outer qualification.
type Quantified struct {
	P     token.Pos
	Quant Quant
	Inner *Path
	Outer []PathStep
}

func (q *Quantified) Pos() token.Pos { return q.P }
func (*Quantified) exprNode()        {}

// Isa tests role membership: <path> ISA <class> (§4.9 example 7).
type Isa struct {
	P      token.Pos
	Entity *Path
	Class  string
}

func (i *Isa) Pos() token.Pos { return i.P }
func (*Isa) exprNode()        {}
