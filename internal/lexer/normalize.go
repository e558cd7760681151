package lexer

import "sim/internal/token"

// Literal is one number or string literal lifted out of a statement by
// Normalize: what Next would report as that token's Kind and Text.
type Literal struct {
	Kind token.Kind // INT, NUMBER or STRING
	Text string     // digits as written; for STRING, the unquoted value
}

// Normalize splits a statement into its shape and its literals. The shape
// key is the statement's tokens, comments and layout dropped, joined by
// single spaces, with every INT, NUMBER and STRING token replaced by a
// placeholder that keeps only its kind (?i, ?n, ?s); the literals follow in
// source order. '?' opens no SIM token, so a placeholder can never be
// mistaken for source text: two statements have equal keys exactly when
// their token sequences agree everywhere but in the literals' values.
//
// The key is appended to key and the literals to lits (pass buffers of
// zero length to reuse their storage); nothing else is allocated unless a
// string literal holds an escaped quote. A lexical error is returned as
// Next would report it.
func Normalize(src string, key []byte, lits []Literal) ([]byte, []Literal, error) {
	l := Lexer{src: src, line: 1}
	for {
		kind, start, end, _, err := l.scan()
		if err != nil {
			return key, lits, err
		}
		if kind == token.EOF {
			return key, lits, nil
		}
		if len(key) > 0 {
			key = append(key, ' ')
		}
		text := src[start:end]
		switch kind {
		case token.INT:
			key = append(key, "?i"...)
		case token.NUMBER:
			key = append(key, "?n"...)
		case token.STRING:
			key = append(key, "?s"...)
			text = unquote(text)
		default:
			key = append(key, text...)
			continue
		}
		lits = append(lits, Literal{Kind: kind, Text: text})
	}
}
