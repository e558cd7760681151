// Package parser implements a recursive-descent parser for SIM's schema
// definition language (§3, §7) and DML (§4).
package parser

import (
	"fmt"
	"strconv"

	"sim/internal/ast"
	"sim/internal/lexer"
	"sim/internal/token"
)

// Error is a parse error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

// Parser holds the token stream and position for one parse.
type Parser struct {
	toks []token.Token
	i    int
	lits int // INT, NUMBER and STRING tokens turned into ast.Lit so far
}

// New tokenizes src and returns a parser over it.
func New(src string) (*Parser, error) {
	toks, err := lexer.All(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

func (p *Parser) cur() token.Token  { return p.toks[p.i] }
func (p *Parser) peek() token.Token { return p.at(1) }

func (p *Parser) at(n int) token.Token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.i+n]
}

func (p *Parser) next() token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func (p *Parser) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of kind k or fails.
func (p *Parser) expect(k token.Kind, what string) (token.Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errf(t.Pos, "expected %s in %s, found %q", k, what, t.Text)
	}
	return p.next(), nil
}

// accept consumes the next token when it is of kind k.
func (p *Parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

// name consumes an identifier-like token (identifiers and non-structural
// keywords may both name schema objects; SIM's hyphenated names make many
// words identifiers anyway).
func (p *Parser) name(what string) (string, token.Pos, error) {
	t := p.cur()
	if t.Kind == token.IDENT || isNameKeyword(t.Kind) {
		p.next()
		return t.Text, t.Pos, nil
	}
	return "", t.Pos, p.errf(t.Pos, "expected a name in %s, found %q", what, t.Text)
}

// isNameKeyword lists keywords permitted as schema identifiers when they
// appear where a name is required (e.g. an attribute called "date" would be
// unusual, but MAX/MIN/COUNT-like words are never needed structurally in
// name position).
func isNameKeyword(k token.Kind) bool {
	switch k {
	case token.DATE, token.MAX, token.MIN, token.COUNT, token.SUM, token.AVG,
		token.TABLE, token.STRUCTURE, token.ORDER, token.TYPE, token.ALL,
		token.NO, token.SOME, token.CURRENT:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ParseSchema parses a full DDL text: a sequence of Type, Class, Subclass
// and Verify declarations, each terminated by ';'.
func ParseSchema(src string) (*ast.Schema, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	sch := &ast.Schema{}
	for p.cur().Kind != token.EOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		sch.Decls = append(sch.Decls, d)
	}
	return sch, nil
}

func (p *Parser) parseDecl() (ast.Decl, error) {
	t := p.cur()
	switch {
	case t.Kind == token.TYPE:
		return p.parseTypeDecl()
	case t.Kind == token.CLASS:
		return p.parseClassDecl(false)
	case t.Kind == token.SUBCLASS:
		return p.parseClassDecl(true)
	case t.Kind == token.VERIFY:
		return p.parseVerifyDecl()
	}
	return nil, p.errf(t.Pos, "expected Type, Class, Subclass or Verify, found %q", t.Text)
}

// parseTypeDecl parses: Type degree = symbolic (BS, MBA, MS, PHD);
func (p *Parser) parseTypeDecl() (ast.Decl, error) {
	pos := p.next().Pos // TYPE
	name, _, err := p.name("type declaration")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.EQ, "type declaration"); err != nil {
		return nil, err
	}
	def, err := p.parseTypeExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.SEMICOLON, "type declaration"); err != nil {
		return nil, err
	}
	return &ast.TypeDecl{P: pos, Name: name, Def: def}, nil
}

// parseClassDecl parses Class or Subclass declarations:
//
//	Class Person ( ... );
//	Subclass Teaching-assistant of Student and Instructor ( ... );
func (p *Parser) parseClassDecl(sub bool) (ast.Decl, error) {
	pos := p.next().Pos // CLASS or SUBCLASS
	name, _, err := p.name("class declaration")
	if err != nil {
		return nil, err
	}
	decl := &ast.ClassDecl{P: pos, Name: name}
	if sub {
		if _, err := p.expect(token.OF, "subclass declaration"); err != nil {
			return nil, err
		}
		for {
			super, _, err := p.name("superclass list")
			if err != nil {
				return nil, err
			}
			decl.Supers = append(decl.Supers, super)
			if p.accept(token.AND) || p.accept(token.COMMA) {
				continue
			}
			break
		}
	}
	if _, err := p.expect(token.LPAREN, "class body"); err != nil {
		return nil, err
	}
	for p.cur().Kind != token.RPAREN {
		attr, err := p.parseAttrDecl()
		if err != nil {
			return nil, err
		}
		decl.Attrs = append(decl.Attrs, attr)
		if p.accept(token.SEMICOLON) {
			continue
		}
		break
	}
	if _, err := p.expect(token.RPAREN, "class body"); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.SEMICOLON, "class declaration"); err != nil {
		return nil, err
	}
	return decl, nil
}

// parseAttrDecl parses one attribute:
//
//	soc-sec-no: integer, unique, required
//	advisees: student inverse is advisor mv (max 10)
//	courses-taught: course inverse is courses-taught mv (max 3, distinct)
//	dept-nbr: integer(100..999) required unique
func (p *Parser) parseAttrDecl() (ast.AttrDecl, error) {
	name, pos, err := p.name("attribute declaration")
	if err != nil {
		return ast.AttrDecl{}, err
	}
	a := ast.AttrDecl{P: pos, Name: name}
	if _, err := p.expect(token.COLON, "attribute declaration"); err != nil {
		return a, err
	}
	// Derived attribute: <name>: derived <expr>.
	if p.accept(token.DERIVED) {
		a.Derived, err = p.parseExpr()
		return a, err
	}
	a.Type, err = p.parseTypeExpr()
	if err != nil {
		return a, err
	}
	// inverse is <name>
	if p.cur().Kind == token.INVERSE {
		p.next()
		if _, err := p.expect(token.IS, "inverse clause"); err != nil {
			return a, err
		}
		inv, _, err := p.name("inverse clause")
		if err != nil {
			return a, err
		}
		a.Inverse = inv
	}
	// Options, optionally comma-separated.
	for {
		switch {
		case p.accept(token.COMMA):
			continue
		case p.cur().Kind == token.UNIQUE:
			p.next()
			a.Options.Unique = true
		case p.cur().Kind == token.REQUIRED:
			p.next()
			a.Options.Required = true
		case p.cur().Kind == token.MV:
			p.next()
			a.Options.MV = true
			if p.accept(token.LPAREN) {
				if err := p.parseMVOptions(&a.Options); err != nil {
					return a, err
				}
			}
		case p.cur().Kind == token.DISTINCT:
			p.next()
			a.Options.Distinct = true
		default:
			return a, nil
		}
	}
}

// parseMVOptions parses the parenthesized multi-value options after MV:
// (max 10), (distinct), (max 3, distinct).
func (p *Parser) parseMVOptions(opts *ast.AttrOptions) error {
	for {
		t := p.cur()
		switch t.Kind {
		case token.MAX, token.MAXIMUM:
			p.next()
			n, err := p.expect(token.INT, "max option")
			if err != nil {
				return err
			}
			v, err := strconv.Atoi(n.Text)
			if err != nil || v <= 0 {
				return p.errf(n.Pos, "invalid max cardinality %q", n.Text)
			}
			opts.Max = v
		case token.DISTINCT:
			p.next()
			opts.Distinct = true
		default:
			return p.errf(t.Pos, "expected MAX or DISTINCT in multi-value options, found %q", t.Text)
		}
		if p.accept(token.COMMA) {
			continue
		}
		_, err := p.expect(token.RPAREN, "multi-value options")
		return err
	}
}

// parseTypeExpr parses a declared type.
func (p *Parser) parseTypeExpr() (ast.TypeExpr, error) {
	t := p.cur()
	switch t.Kind {
	case token.STRINGKW:
		p.next()
		st := &ast.StringType{P: t.Pos}
		if p.accept(token.LBRACKET) {
			n, err := p.expect(token.INT, "string length")
			if err != nil {
				return nil, err
			}
			st.Len, _ = strconv.Atoi(n.Text)
			if st.Len <= 0 {
				return nil, p.errf(n.Pos, "string length must be positive")
			}
			if _, err := p.expect(token.RBRACKET, "string length"); err != nil {
				return nil, err
			}
		}
		return st, nil
	case token.INTEGER:
		p.next()
		it := &ast.IntType{P: t.Pos}
		if p.accept(token.LPAREN) {
			for {
				lo, err := p.parseSignedInt("integer range")
				if err != nil {
					return nil, err
				}
				hi := lo
				if p.accept(token.DOTDOT) {
					hi, err = p.parseSignedInt("integer range")
					if err != nil {
						return nil, err
					}
				}
				if hi < lo {
					return nil, p.errf(t.Pos, "integer range %d..%d is empty", lo, hi)
				}
				it.Ranges = append(it.Ranges, [2]int64{lo, hi})
				if p.accept(token.COMMA) {
					continue
				}
				if _, err := p.expect(token.RPAREN, "integer ranges"); err != nil {
					return nil, err
				}
				break
			}
		}
		return it, nil
	case token.NUMBERKW:
		p.next()
		nt := &ast.NumberType{P: t.Pos}
		if p.accept(token.LBRACKET) {
			prec, err := p.expect(token.INT, "number precision")
			if err != nil {
				return nil, err
			}
			nt.Precision, _ = strconv.Atoi(prec.Text)
			if p.accept(token.COMMA) {
				sc, err := p.expect(token.INT, "number scale")
				if err != nil {
					return nil, err
				}
				nt.Scale, _ = strconv.Atoi(sc.Text)
			}
			if nt.Precision <= 0 || nt.Scale < 0 || nt.Scale > nt.Precision {
				return nil, p.errf(t.Pos, "invalid number[%d,%d]", nt.Precision, nt.Scale)
			}
			if _, err := p.expect(token.RBRACKET, "number type"); err != nil {
				return nil, err
			}
		}
		return nt, nil
	case token.REAL:
		p.next()
		return &ast.RealType{P: t.Pos}, nil
	case token.DATE:
		p.next()
		return &ast.DateType{P: t.Pos}, nil
	case token.BOOLEAN:
		p.next()
		return &ast.BoolType{P: t.Pos}, nil
	case token.SYMBOLIC:
		p.next()
		if _, err := p.expect(token.LPAREN, "symbolic type"); err != nil {
			return nil, err
		}
		st := &ast.SymbolicType{P: t.Pos}
		for {
			lbl, _, err := p.name("symbolic label")
			if err != nil {
				return nil, err
			}
			st.Labels = append(st.Labels, lbl)
			if p.accept(token.COMMA) {
				continue
			}
			if _, err := p.expect(token.RPAREN, "symbolic type"); err != nil {
				return nil, err
			}
			return st, nil
		}
	case token.SUBROLE:
		p.next()
		if _, err := p.expect(token.LPAREN, "subrole type"); err != nil {
			return nil, err
		}
		st := &ast.SubroleType{P: t.Pos}
		for {
			cls, _, err := p.name("subrole class")
			if err != nil {
				return nil, err
			}
			st.Classes = append(st.Classes, cls)
			if p.accept(token.COMMA) {
				continue
			}
			if _, err := p.expect(token.RPAREN, "subrole type"); err != nil {
				return nil, err
			}
			return st, nil
		}
	case token.IDENT:
		p.next()
		return &ast.NamedType{P: t.Pos, Name: t.Text}, nil
	}
	return nil, p.errf(t.Pos, "expected a type, found %q", t.Text)
}

func (p *Parser) parseSignedInt(what string) (int64, error) {
	neg := p.accept(token.MINUS)
	n, err := p.expect(token.INT, what)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(n.Text, 10, 64)
	if err != nil {
		return 0, p.errf(n.Pos, "integer %q out of range", n.Text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseVerifyDecl parses:
// Verify v1 on Student assert <expr> else "message";
func (p *Parser) parseVerifyDecl() (ast.Decl, error) {
	pos := p.next().Pos // VERIFY
	name, _, err := p.name("verify declaration")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ON, "verify declaration"); err != nil {
		return nil, err
	}
	class, _, err := p.name("verify declaration")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ASSERT, "verify declaration"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	d := &ast.VerifyDecl{P: pos, Name: name, Class: class, Assert: cond}
	if p.accept(token.ELSE) {
		msg, err := p.expect(token.STRING, "verify else message")
		if err != nil {
			return nil, err
		}
		d.ElseMsg = msg.Text
	}
	if _, err := p.expect(token.SEMICOLON, "verify declaration"); err != nil {
		return nil, err
	}
	return d, nil
}
