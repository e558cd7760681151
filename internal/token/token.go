// Package token defines the lexical tokens of the SIM data definition and
// data manipulation languages as described in Jagannathan et al., SIGMOD 1988.
package token

import "strings"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds follow the literal kinds.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // student, Name, courses-enrolled
	INT    // 1729
	NUMBER // 3.14
	STRING // "Algebra I"

	// Operators and delimiters.
	ASSIGN    // :=
	EQ        // =
	NEQ       // neq is a keyword; <> also accepted
	LT        // <
	LE        // <=
	GT        // >
	GE        // >=
	PLUS      // +
	MINUS     // -
	STAR      // *
	SLASH     // /
	LPAREN    // (
	RPAREN    // )
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	PERIOD    // .
	DOTDOT    // ..

	keywordBeg
	// Keywords (case-insensitive in source).
	AND
	ALL
	AS
	ASSERT
	AVG
	BY
	CLASS
	COUNT
	CURRENT
	DATE
	DELETE
	DERIVED
	DISTINCT
	ELSE
	EXCLUDE
	FALSE
	FROM
	INCLUDE
	INSERT
	INTEGER
	INVERSE
	IS
	ISA
	LIKE
	MAX
	MAXIMUM
	MIN
	MINIMUM
	MODIFY
	MV
	NEQKW // the word "neq"
	NO
	NOT
	NULL
	NUMBERKW // the word "number"
	OF
	ON
	OR
	ORDER
	REAL
	REQUIRED
	RETRIEVE
	SOME
	STRINGKW // the word "string"
	STRUCTURE
	SUBCLASS
	SUBROLE
	SUM
	SYMBOLIC
	TABLE
	TRANSITIVE
	TRUE
	TYPE
	UNIQUE
	VERIFY
	WHERE
	WITH
	BOOLEAN
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "IDENT",
	INT:       "INT",
	NUMBER:    "NUMBER",
	STRING:    "STRING",
	ASSIGN:    ":=",
	EQ:        "=",
	NEQ:       "NEQ",
	LT:        "<",
	LE:        "<=",
	GT:        ">",
	GE:        ">=",
	PLUS:      "+",
	MINUS:     "-",
	STAR:      "*",
	SLASH:     "/",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACKET:  "[",
	RBRACKET:  "]",
	COMMA:     ",",
	SEMICOLON: ";",
	COLON:     ":",
	PERIOD:    ".",
	DOTDOT:    "..",

	AND:        "AND",
	ALL:        "ALL",
	AS:         "AS",
	ASSERT:     "ASSERT",
	AVG:        "AVG",
	BY:         "BY",
	CLASS:      "CLASS",
	COUNT:      "COUNT",
	CURRENT:    "CURRENT",
	DATE:       "DATE",
	DELETE:     "DELETE",
	DERIVED:    "DERIVED",
	DISTINCT:   "DISTINCT",
	ELSE:       "ELSE",
	EXCLUDE:    "EXCLUDE",
	FALSE:      "FALSE",
	FROM:       "FROM",
	INCLUDE:    "INCLUDE",
	INSERT:     "INSERT",
	INTEGER:    "INTEGER",
	INVERSE:    "INVERSE",
	IS:         "IS",
	ISA:        "ISA",
	LIKE:       "LIKE",
	MAX:        "MAX",
	MAXIMUM:    "MAXIMUM",
	MIN:        "MIN",
	MINIMUM:    "MINIMUM",
	MODIFY:     "MODIFY",
	MV:         "MV",
	NEQKW:      "NEQ",
	NO:         "NO",
	NOT:        "NOT",
	NULL:       "NULL",
	NUMBERKW:   "NUMBER",
	OF:         "OF",
	ON:         "ON",
	OR:         "OR",
	ORDER:      "ORDER",
	REAL:       "REAL",
	REQUIRED:   "REQUIRED",
	RETRIEVE:   "RETRIEVE",
	SOME:       "SOME",
	STRINGKW:   "STRING",
	STRUCTURE:  "STRUCTURE",
	SUBCLASS:   "SUBCLASS",
	SUBROLE:    "SUBROLE",
	SUM:        "SUM",
	SYMBOLIC:   "SYMBOLIC",
	TABLE:      "TABLE",
	TRANSITIVE: "TRANSITIVE",
	TRUE:       "TRUE",
	TYPE:       "TYPE",
	UNIQUE:     "UNIQUE",
	VERIFY:     "VERIFY",
	WHERE:      "WHERE",
	WITH:       "WITH",
	BOOLEAN:    "BOOLEAN",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Kind(?)"
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[strings.ToLower(kindNames[k])] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT when the
// word is not reserved. SIM keywords are case-insensitive.
func Lookup(ident string) Kind {
	if k, ok := keywords[strings.ToLower(ident)]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column.
type Pos struct {
	Line, Col int
}

// Token is a lexical unit with its source text and position.
type Token struct {
	Kind Kind
	Text string // original spelling; for STRING, the unquoted value
	Pos  Pos
}
