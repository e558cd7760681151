// Package lexer implements the tokenizer for SIM DDL and DML source text.
//
// SIM identifiers may contain hyphens (soc-sec-no, courses-enrolled). A '-'
// is taken as part of an identifier when it appears directly between an
// identifier character and a letter with no intervening space; surrounded by
// spaces (or followed by a digit) it is the subtraction operator, matching
// the paper's examples where arithmetic is written with spacing.
package lexer

import (
	"fmt"
	"strings"

	"sim/internal/token"
)

// Lexer scans SIM source text into tokens.
type Lexer struct {
	src       string
	pos       int // byte offset of the next byte
	line      int
	lineStart int // byte offset at which the current line begins
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Error describes a lexical error with its position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

// here is the position of the next byte. Only skipSpace moves past line
// breaks (tokens never span one), so it alone keeps line/lineStart.
func (l *Lexer) here() token.Pos {
	return token.Pos{Line: l.line, Col: l.pos - l.lineStart + 1}
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentChar(c byte) bool { return isLetter(c) || isDigit(c) }

// skipSpace consumes whitespace and comments. SIM accepts Pascal-style
// (* ... *) comments (used in the paper's example schema) and
// line comments beginning with "--".
func (l *Lexer) skipSpace() error {
	newline := func() {
		l.line++
		l.lineStart = l.pos
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.pos++
			newline()
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '(' && l.peekAt(1) == '*':
			start := l.here()
			l.pos += 2
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.peekAt(1) == ')' {
					l.pos += 2
					closed = true
					break
				}
				l.pos++
				if l.src[l.pos-1] == '\n' {
					newline()
				}
			}
			if !closed {
				return &Error{Pos: start, Msg: "unterminated comment"}
			}
		case c == '-' && l.peekAt(1) == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// scan consumes the next token and returns its lexical class and the
// source span src[start:end], without allocating. Words come back as
// IDENT (Next sorts keywords from names) and strings with their quotes
// (Next unquotes); at end of input the kind is EOF and the span empty.
// Next and Normalize are both built on it, so they cannot disagree on
// where a token ends.
func (l *Lexer) scan() (kind token.Kind, start, end int, pos token.Pos, err error) {
	if err := l.skipSpace(); err != nil {
		return token.ILLEGAL, 0, 0, token.Pos{}, err
	}
	pos = l.here()
	start = l.pos
	if l.pos >= len(l.src) {
		return token.EOF, start, start, pos, nil
	}
	c := l.src[l.pos]
	switch {
	case isLetter(c):
		l.scanIdent()
		return token.IDENT, start, l.pos, pos, nil
	case isDigit(c):
		return l.scanNumber(), start, l.pos, pos, nil
	case c == '"':
		if err := l.scanString(pos); err != nil {
			return token.ILLEGAL, 0, 0, pos, err
		}
		return token.STRING, start, l.pos, pos, nil
	}
	l.pos++
	kind = token.ILLEGAL
	switch c {
	case ':':
		kind = token.COLON
		if l.peek() == '=' {
			l.pos++
			kind = token.ASSIGN
		}
	case '=':
		kind = token.EQ
	case '<':
		kind = token.LT
		switch l.peek() {
		case '=':
			l.pos++
			kind = token.LE
		case '>':
			l.pos++
			kind = token.NEQ
		}
	case '>':
		kind = token.GT
		if l.peek() == '=' {
			l.pos++
			kind = token.GE
		}
	case '+':
		kind = token.PLUS
	case '-':
		kind = token.MINUS
	case '*':
		kind = token.STAR
	case '/':
		kind = token.SLASH
	case '(':
		kind = token.LPAREN
	case ')':
		kind = token.RPAREN
	case '[':
		kind = token.LBRACKET
	case ']':
		kind = token.RBRACKET
	case ',':
		kind = token.COMMA
	case ';':
		kind = token.SEMICOLON
	case '.':
		kind = token.PERIOD
		if l.peek() == '.' {
			l.pos++
			kind = token.DOTDOT
		}
	}
	if kind == token.ILLEGAL {
		return kind, 0, 0, pos, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
	return kind, start, l.pos, pos, nil
}

// Next returns the next token. At end of input it returns an EOF token.
func (l *Lexer) Next() (token.Token, error) {
	kind, start, end, pos, err := l.scan()
	if err != nil {
		return token.Token{}, err
	}
	text := l.src[start:end]
	switch kind {
	case token.IDENT:
		// Hyphenated words are never keywords even if a segment matches one.
		if strings.IndexByte(text, '-') < 0 {
			kind = token.Lookup(text)
		}
	case token.STRING:
		text = unquote(text)
	}
	return token.Token{Kind: kind, Text: text, Pos: pos}, nil
}

func (l *Lexer) scanIdent() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		// Hyphen glued between an identifier character and a letter is part
		// of the name: soc-sec-no, courses-enrolled.
		if isIdentChar(c) || c == '-' && isLetter(l.peekAt(1)) {
			l.pos++
			continue
		}
		break
	}
}

func (l *Lexer) scanNumber() token.Kind {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	// A '.' begins a fraction only when a digit follows; otherwise it is a
	// range operator ('..') or the statement terminator ("= 3.").
	if l.peek() != '.' || !isDigit(l.peekAt(1)) {
		return token.INT
	}
	l.pos++
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	return token.NUMBER
}

// scanString consumes a quoted string, closing quote included. A doubled
// quote inside is an escaped quote.
func (l *Lexer) scanString(pos token.Pos) error {
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		l.pos++
		if c == '"' {
			if l.peek() != '"' {
				return nil
			}
			l.pos++
		} else if c == '\n' {
			break
		}
	}
	return &Error{Pos: pos, Msg: "unterminated string literal"}
}

// unquote returns the value of a scanned string literal: the text between
// its quotes with doubled quotes collapsed. It allocates only when the
// literal holds an escaped quote.
func unquote(lit string) string {
	inner := lit[1 : len(lit)-1]
	if strings.IndexByte(inner, '"') < 0 {
		return inner
	}
	return strings.ReplaceAll(inner, `""`, `"`)
}

// All tokenizes the entire input, returning the tokens up to and including
// the EOF token.
func All(src string) ([]token.Token, error) {
	l := New(src)
	var out []token.Token
	for {
		t, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, nil
		}
	}
}
