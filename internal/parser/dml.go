package parser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sim/internal/ast"
	"sim/internal/token"
	"sim/internal/value"
)

// timeNow is swappable for tests of CURRENT DATE.
var timeNow = time.Now

// ParseStmt parses a single DML statement. The terminating '.' or ';' is
// optional.
func ParseStmt(src string) (ast.Stmt, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind != token.EOF {
		return nil, p.errf(t.Pos, "unexpected %q after statement", t.Text)
	}
	return s, nil
}

// ParseStmts parses a sequence of DML statements separated by '.' or ';',
// returning each statement's AST and, beside it, its source text.
// Boundaries come from the parser itself, so '.' inside strings or
// numbers never splits; a front end can ship or run a script one
// statement at a time.
func ParseStmts(src string) ([]ast.Stmt, []string, error) {
	p, err := New(src)
	if err != nil {
		return nil, nil, err
	}
	var stmts []ast.Stmt
	var starts []token.Pos
	for p.cur().Kind != token.EOF {
		starts = append(starts, p.cur().Pos)
		s, err := p.parseStmt()
		if err != nil {
			return nil, nil, err
		}
		stmts = append(stmts, s)
	}
	offs := posOffsets(src, starts)
	texts := make([]string, len(starts))
	for i := range starts {
		end := len(src)
		if i+1 < len(starts) {
			end = offs[i+1]
		}
		texts[i] = strings.TrimSpace(src[offs[i]:end])
	}
	return stmts, texts, nil
}

// posOffsets converts ascending token positions to byte offsets by
// replaying the lexer's line/column accounting over src.
func posOffsets(src string, ps []token.Pos) []int {
	out := make([]int, len(ps))
	line, col, j := 1, 1, 0
	for i := 0; i < len(src) && j < len(ps); i++ {
		for j < len(ps) && ps[j].Line == line && ps[j].Col == col {
			out[j] = i
			j++
		}
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	for ; j < len(ps); j++ {
		out[j] = len(src)
	}
	return out
}

func (p *Parser) parseStmt() (ast.Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case token.FROM, token.RETRIEVE:
		return p.parseRetrieve()
	case token.INSERT:
		return p.parseInsert()
	case token.MODIFY:
		return p.parseModify()
	case token.DELETE:
		return p.parseDelete()
	case token.IDENT:
		// Transaction control words are contextual keywords, not reserved
		// tokens, so BEGIN/COMMIT/ROLLBACK stay legal as attribute names.
		switch strings.ToLower(t.Text) {
		case "begin":
			return p.parseTxnStmt(&ast.BeginStmt{P: t.Pos})
		case "commit":
			return p.parseTxnStmt(&ast.CommitStmt{P: t.Pos})
		case "rollback":
			return p.parseTxnStmt(&ast.RollbackStmt{P: t.Pos})
		}
	}
	return nil, p.errf(t.Pos, "expected FROM, RETRIEVE, INSERT, MODIFY, DELETE, BEGIN, COMMIT or ROLLBACK, found %q", t.Text)
}

// parseTxnStmt finishes BEGIN/COMMIT/ROLLBACK [TRANSACTION] [.|;].
func (p *Parser) parseTxnStmt(s ast.Stmt) (ast.Stmt, error) {
	p.next() // the control word itself
	if t := p.cur(); t.Kind == token.IDENT && strings.EqualFold(t.Text, "transaction") {
		p.next()
	}
	p.endStmt()
	return s, nil
}

// endStmt consumes an optional statement terminator ('.' or ';').
func (p *Parser) endStmt() {
	if !p.accept(token.PERIOD) {
		p.accept(token.SEMICOLON)
	}
}

// parseRetrieve parses:
//
//	[FROM <perspective list>] RETRIEVE [TABLE [DISTINCT] | STRUCTURE]
//	  <target list> [ORDER BY <order list>] [WHERE <expr>] [.|;]
func (p *Parser) parseRetrieve() (ast.Stmt, error) {
	stmt := &ast.RetrieveStmt{P: p.cur().Pos}
	if p.accept(token.FROM) {
		for {
			cls, pos, err := p.name("perspective list")
			if err != nil {
				return nil, err
			}
			ref := ast.PerspectiveRef{P: pos, Class: cls}
			// Optional reference variable: "From student s1, student s2".
			if t := p.cur(); t.Kind == token.IDENT {
				ref.Var = t.Text
				p.next()
			}
			stmt.Perspectives = append(stmt.Perspectives, ref)
			if p.accept(token.COMMA) {
				continue
			}
			break
		}
	}
	if _, err := p.expect(token.RETRIEVE, "retrieve statement"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(token.TABLE):
		stmt.Mode = ast.OutputTable
		if p.accept(token.DISTINCT) {
			stmt.Mode = ast.OutputTableDistinct
		}
	case p.accept(token.STRUCTURE):
		stmt.Mode = ast.OutputStructure
	}
	targets, err := p.parseTargetList()
	if err != nil {
		return nil, err
	}
	stmt.Targets = targets
	// The paper's grammar places ORDER BY before WHERE; both orders are
	// accepted here.
	for {
		switch {
		case p.cur().Kind == token.ORDER && stmt.OrderBy == nil:
			p.next()
			if _, err := p.expect(token.BY, "order by clause"); err != nil {
				return nil, err
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				stmt.OrderBy = append(stmt.OrderBy, e)
				if p.accept(token.COMMA) {
					continue
				}
				break
			}
			continue
		case p.cur().Kind == token.WHERE && stmt.Where == nil:
			p.next()
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Where = w
			continue
		}
		break
	}
	p.endStmt()
	return stmt, nil
}

// parseTargetList parses the comma-separated target expressions, supporting
// parenthetic factoring of qualifications: "(Title, Credits) of
// Courses-Enrolled" expands to two paths sharing the trailing steps.
func (p *Parser) parseTargetList() ([]ast.Expr, error) {
	var out []ast.Expr
	for {
		if p.cur().Kind == token.LPAREN && p.factoredGroupAhead() {
			exprs, err := p.parseFactoredGroup()
			if err != nil {
				return nil, err
			}
			out = append(out, exprs...)
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		if p.accept(token.COMMA) {
			continue
		}
		return out, nil
	}
}

// factoredGroupAhead reports whether the LPAREN at the cursor opens a
// parenthesized comma group directly followed by OF — the paper's
// "parenthetically factored" qualification shorthand.
func (p *Parser) factoredGroupAhead() bool {
	depth := 0
	sawComma := false
	for n := 0; ; n++ {
		t := p.at(n)
		switch t.Kind {
		case token.LPAREN:
			depth++
		case token.RPAREN:
			depth--
			if depth == 0 {
				return sawComma && p.at(n+1).Kind == token.OF
			}
		case token.COMMA:
			if depth == 1 {
				sawComma = true
			}
		case token.EOF:
			return false
		}
	}
}

func (p *Parser) parseFactoredGroup() ([]ast.Expr, error) {
	if _, err := p.expect(token.LPAREN, "factored qualification"); err != nil {
		return nil, err
	}
	var exprs []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if p.accept(token.COMMA) {
			continue
		}
		break
	}
	if _, err := p.expect(token.RPAREN, "factored qualification"); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.OF, "factored qualification"); err != nil {
		return nil, err
	}
	steps, err := p.parsePathSteps()
	if err != nil {
		return nil, err
	}
	for i, e := range exprs {
		switch x := e.(type) {
		case *ast.Path:
			x.Steps = append(x.Steps, steps...)
		case *ast.Agg:
			x.Outer = append(x.Outer, steps...)
		default:
			return nil, p.errf(e.Pos(), "factored item %d is not a qualification", i+1)
		}
	}
	return exprs, nil
}

// parseInsert parses:
//
//	INSERT <class1> [FROM <class2> WHERE <expr>] [ ( <assignment list> ) ]
func (p *Parser) parseInsert() (ast.Stmt, error) {
	pos := p.next().Pos // INSERT
	cls, _, err := p.name("insert statement")
	if err != nil {
		return nil, err
	}
	stmt := &ast.InsertStmt{P: pos, Class: cls}
	if p.accept(token.FROM) {
		from, _, err := p.name("insert from clause")
		if err != nil {
			return nil, err
		}
		stmt.FromClass = from
		if _, err := p.expect(token.WHERE, "insert from clause"); err != nil {
			return nil, err
		}
		stmt.FromWhere, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(token.LPAREN) {
		stmt.Assigns, err = p.parseAssignList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN, "assignment list"); err != nil {
			return nil, err
		}
	}
	p.endStmt()
	return stmt, nil
}

// parseModify parses: MODIFY <class> ( <assignment list> ) [WHERE <expr>].
func (p *Parser) parseModify() (ast.Stmt, error) {
	pos := p.next().Pos // MODIFY
	cls, _, err := p.name("modify statement")
	if err != nil {
		return nil, err
	}
	stmt := &ast.ModifyStmt{P: pos, Class: cls}
	if _, err := p.expect(token.LPAREN, "modify statement"); err != nil {
		return nil, err
	}
	stmt.Assigns, err = p.parseAssignList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN, "assignment list"); err != nil {
		return nil, err
	}
	if p.accept(token.WHERE) {
		stmt.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	p.endStmt()
	return stmt, nil
}

// parseDelete parses: DELETE <class> [WHERE <expr>].
func (p *Parser) parseDelete() (ast.Stmt, error) {
	pos := p.next().Pos // DELETE
	cls, _, err := p.name("delete statement")
	if err != nil {
		return nil, err
	}
	stmt := &ast.DeleteStmt{P: pos, Class: cls}
	if p.accept(token.WHERE) {
		var err error
		stmt.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	p.endStmt()
	return stmt, nil
}

func (p *Parser) parseAssignList() ([]ast.Assign, error) {
	var out []ast.Assign
	for {
		a, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if p.accept(token.COMMA) {
			continue
		}
		return out, nil
	}
}

// parseAssign parses one assignment:
//
//	soc-sec-no := 456887766
//	advisor := instructor with (name = "Joe Bloke")
//	courses-enrolled := exclude courses-enrolled with (title = "Algebra I")
//	salary := 1.1 * salary
func (p *Parser) parseAssign() (ast.Assign, error) {
	name, pos, err := p.name("assignment")
	if err != nil {
		return ast.Assign{}, err
	}
	a := ast.Assign{P: pos, Attr: name}
	if _, err := p.expect(token.ASSIGN, "assignment"); err != nil {
		return a, err
	}
	switch {
	case p.accept(token.INCLUDE):
		a.Mode = ast.AssignInclude
	case p.accept(token.EXCLUDE):
		a.Mode = ast.AssignExclude
	}
	// Entity selection: <name> WITH ( expr ). Distinguish from a scalar
	// expression by the WITH keyword following a bare name.
	t := p.cur()
	if (t.Kind == token.IDENT || isNameKeyword(t.Kind)) && p.peek().Kind == token.WITH {
		selName, selPos, _ := p.name("entity selection")
		p.next() // WITH
		if _, err := p.expect(token.LPAREN, "entity selection"); err != nil {
			return a, err
		}
		sel := &ast.EntitySel{P: selPos, Name: selName}
		if p.cur().Kind != token.RPAREN {
			sel.Where, err = p.parseExpr()
			if err != nil {
				return a, err
			}
		}
		if _, err := p.expect(token.RPAREN, "entity selection"); err != nil {
			return a, err
		}
		a.Entity = sel
		return a, nil
	}
	// Scalar right-hand side; with INCLUDE/EXCLUDE this operates on a
	// multi-valued DVA (§4.8 applies the keywords to all MV attributes).
	a.Value, err = p.parseExpr()
	return a, err
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseExpr parses a full boolean/value expression.
func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == token.OR {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{P: pos, Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == token.AND {
		pos := p.next().Pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{P: pos, Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.cur().Kind == token.NOT {
		pos := p.next().Pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{P: pos, Op: ast.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[token.Kind]ast.BinaryOp{
	token.EQ:    ast.OpEQ,
	token.NEQ:   ast.OpNEQ,
	token.NEQKW: ast.OpNEQ,
	token.LT:    ast.OpLT,
	token.LE:    ast.OpLE,
	token.GT:    ast.OpGT,
	token.GE:    ast.OpGE,
	token.LIKE:  ast.OpLike,
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == token.ISA {
		pos := p.next().Pos
		cls, _, err := p.name("isa expression")
		if err != nil {
			return nil, err
		}
		path, ok := l.(*ast.Path)
		if !ok {
			return nil, p.errf(pos, "left operand of ISA must be an entity qualification")
		}
		return &ast.Isa{P: pos, Entity: path, Class: cls}, nil
	}
	op, ok := cmpOps[t.Kind]
	if !ok {
		return l, nil
	}
	pos := p.next().Pos
	r, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &ast.Binary{P: pos, Op: op, L: l, R: r}, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch p.cur().Kind {
		case token.PLUS:
			op = ast.OpAdd
		case token.MINUS:
			op = ast.OpSub
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{P: pos, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch p.cur().Kind {
		case token.STAR:
			op = ast.OpMul
		case token.SLASH:
			op = ast.OpDiv
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{P: pos, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.cur().Kind == token.MINUS {
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{P: pos, Op: ast.OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[token.Kind]ast.AggFunc{
	token.COUNT: ast.AggCount,
	token.SUM:   ast.AggSum,
	token.AVG:   ast.AggAvg,
	token.MIN:   ast.AggMin,
	token.MAX:   ast.AggMax,
	// MINIMUM/MAXIMUM spellings are also accepted.
	token.MINIMUM: ast.AggMin,
	token.MAXIMUM: ast.AggMax,
}

var quantKinds = map[token.Kind]ast.Quant{
	token.SOME: ast.QSome,
	token.ALL:  ast.QAll,
	token.NO:   ast.QNo,
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.INT, token.NUMBER, token.STRING:
		p.next()
		v, err := LiteralValue(t.Kind, t.Text)
		if err != nil {
			return nil, p.errf(t.Pos, "%v", err)
		}
		// In a DML statement every such token is an expression literal, so
		// slot k is the k-th literal lexer.Normalize lifts out.
		p.lits++
		return &ast.Lit{P: t.Pos, Val: v, Slot: p.lits}, nil
	case token.TRUE:
		p.next()
		return &ast.Lit{P: t.Pos, Val: value.NewBool(true)}, nil
	case token.FALSE:
		p.next()
		return &ast.Lit{P: t.Pos, Val: value.NewBool(false)}, nil
	case token.NULL:
		p.next()
		return &ast.Lit{P: t.Pos, Val: value.Null}, nil
	case token.CURRENT:
		// CURRENT DATE: today's date as a literal (§4.9's "array of
		// operators and primitive functions").
		if p.peek().Kind == token.DATE {
			p.next()
			p.next()
			return &ast.Lit{P: t.Pos, Val: value.DateFromTime(timeNow())}, nil
		}
	case token.LPAREN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN, "parenthesized expression"); err != nil {
			return nil, err
		}
		return e, nil
	}

	// Aggregate: COUNT [DISTINCT] ( path ) [OF steps]. The aggregate
	// keywords double as plain names when not followed by '(' or DISTINCT.
	if f, ok := aggFuncs[t.Kind]; ok {
		if p.peek().Kind == token.LPAREN || (p.peek().Kind == token.DISTINCT && p.at(2).Kind == token.LPAREN) {
			p.next()
			agg := &ast.Agg{P: t.Pos, Func: f}
			if p.accept(token.DISTINCT) {
				agg.Distinct = true
			}
			if _, err := p.expect(token.LPAREN, "aggregate"); err != nil {
				return nil, err
			}
			inner, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			agg.Inner = inner
			if _, err := p.expect(token.RPAREN, "aggregate"); err != nil {
				return nil, err
			}
			if p.accept(token.OF) {
				agg.Outer, err = p.parsePathSteps()
				if err != nil {
					return nil, err
				}
			}
			return agg, nil
		}
	}

	// Quantifier: SOME ( path ) [OF steps].
	if q, ok := quantKinds[t.Kind]; ok && p.peek().Kind == token.LPAREN {
		p.next()
		p.next() // (
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		qn := &ast.Quantified{P: t.Pos, Quant: q, Inner: inner}
		if _, err := p.expect(token.RPAREN, "quantifier"); err != nil {
			return nil, err
		}
		if p.accept(token.OF) {
			qn.Outer, err = p.parsePathSteps()
			if err != nil {
				return nil, err
			}
		}
		return qn, nil
	}

	if t.Kind == token.IDENT || t.Kind == token.TRANSITIVE || t.Kind == token.INVERSE || isNameKeyword(t.Kind) {
		return p.parsePath()
	}
	return nil, p.errf(t.Pos, "unexpected %q in expression", t.Text)
}

// LiteralValue is the value of an INT, NUMBER or STRING token with the
// given text (for STRING, the unquoted text): the one place literal
// spellings become values, for the parser and for the plan cache's
// re-binding of lifted literals alike.
func LiteralValue(kind token.Kind, text string) (value.Value, error) {
	switch kind {
	case token.INT:
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("integer %q out of range", text)
		}
		return value.NewInt(v), nil
	case token.NUMBER:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return value.Null, fmt.Errorf("number %q out of range", text)
		}
		return value.NewNumber(f), nil
	case token.STRING:
		return value.NewString(text), nil
	}
	return value.Null, fmt.Errorf("%s token is not a literal", kind)
}

// parsePath parses a qualification chain: step { OF step }.
func (p *Parser) parsePath() (*ast.Path, error) {
	pos := p.cur().Pos
	steps, err := p.parsePathSteps()
	if err != nil {
		return nil, err
	}
	return &ast.Path{P: pos, Steps: steps}, nil
}

func (p *Parser) parsePathSteps() ([]ast.PathStep, error) {
	var steps []ast.PathStep
	for {
		s, err := p.parsePathStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
		if p.accept(token.OF) {
			continue
		}
		return steps, nil
	}
}

// parsePathStep parses one step: [TRANSITIVE(] name | INVERSE(name) [)]
// [AS class].
func (p *Parser) parsePathStep() (ast.PathStep, error) {
	var s ast.PathStep
	if p.cur().Kind == token.TRANSITIVE && p.peek().Kind == token.LPAREN {
		p.next()
		p.next()
		s.Transitive = true
		if p.cur().Kind == token.INVERSE && p.peek().Kind == token.LPAREN {
			if err := p.parseInverseName(&s); err != nil {
				return s, err
			}
		} else {
			n, _, err := p.name("transitive closure")
			if err != nil {
				return s, err
			}
			s.Name = n
		}
		if _, err := p.expect(token.RPAREN, "transitive closure"); err != nil {
			return s, err
		}
	} else if p.cur().Kind == token.INVERSE && p.peek().Kind == token.LPAREN {
		if err := p.parseInverseName(&s); err != nil {
			return s, err
		}
	} else {
		n, _, err := p.name("qualification")
		if err != nil {
			return s, err
		}
		s.Name = n
	}
	if p.accept(token.AS) {
		cls, _, err := p.name("role conversion")
		if err != nil {
			return s, err
		}
		s.As = cls
	}
	return s, nil
}

func (p *Parser) parseInverseName(s *ast.PathStep) error {
	p.next() // INVERSE
	p.next() // (
	n, _, err := p.name("inverse reference")
	if err != nil {
		return err
	}
	s.Name = n
	s.Inverse = true
	_, err = p.expect(token.RPAREN, "inverse reference")
	return err
}
