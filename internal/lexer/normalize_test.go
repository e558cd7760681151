package lexer

import (
	"strings"
	"testing"

	"sim/internal/token"
)

func isLiteral(k token.Kind) bool {
	return k == token.INT || k == token.NUMBER || k == token.STRING
}

// shapeOf rebuilds a shape key from Next's tokens: the reference Normalize
// must agree with. It is injective on token sequences up to literal
// values, so agreement proves that equal keys mean equal kinds and equal
// non-literal text.
func shapeOf(toks []token.Token) (string, []Literal) {
	var parts []string
	var lits []Literal
	for _, t := range toks {
		switch t.Kind {
		case token.EOF:
		case token.INT:
			parts = append(parts, "?i")
		case token.NUMBER:
			parts = append(parts, "?n")
		case token.STRING:
			parts = append(parts, "?s")
		default:
			parts = append(parts, t.Text)
		}
		if isLiteral(t.Kind) {
			lits = append(lits, Literal{Kind: t.Kind, Text: t.Text})
		}
	}
	return strings.Join(parts, " "), lits
}

// checkNormalize holds Normalize against lexer.All on one input and
// returns the key (ok false when the input does not lex).
func checkNormalize(t *testing.T, src string) (key string, toks []token.Token, ok bool) {
	t.Helper()
	toks, lexErr := All(src)
	k, lits, err := Normalize(src, nil, nil)
	if (err != nil) != (lexErr != nil) {
		t.Fatalf("Normalize(%q) error %v, lexer.All error %v", src, err, lexErr)
	}
	if err != nil {
		if err.Error() != lexErr.Error() {
			t.Fatalf("Normalize(%q) error %q, lexer.All error %q", src, err, lexErr)
		}
		return "", nil, false
	}
	wantKey, wantLits := shapeOf(toks)
	if string(k) != wantKey {
		t.Fatalf("Normalize(%q) key %q, want %q", src, k, wantKey)
	}
	if len(lits) != len(wantLits) {
		t.Fatalf("Normalize(%q) lifted %d literals, lexer.All has %d", src, len(lits), len(wantLits))
	}
	for i := range lits {
		if lits[i] != wantLits[i] {
			t.Fatalf("Normalize(%q) literal %d = %+v, want %+v", src, i, lits[i], wantLits[i])
		}
	}
	return wantKey, toks, true
}

func TestNormalize(t *testing.T) {
	same := [][2]string{
		{`From student Retrieve name Where soc-sec-no = 123.`, `From student Retrieve name Where soc-sec-no = 456.`},
		{`From student Retrieve name Where soc-sec-no=123.`, "From student  Retrieve name (* c *)\n Where soc-sec-no = 9 . -- tail"},
		{`Retrieve x Where name = "a""b"`, `Retrieve x Where name = ""`},
		{`Retrieve salary-1`, `Retrieve salary - 22`},
		{`Retrieve x Where a = 1.5 and b = -2`, `Retrieve x Where a = 0.25 and b = -7`},
	}
	for _, p := range same {
		a, _, _ := checkNormalize(t, p[0])
		b, _, _ := checkNormalize(t, p[1])
		if a != b {
			t.Errorf("keys differ:\n %q -> %q\n %q -> %q", p[0], a, p[1], b)
		}
	}
	differ := [][2]string{
		{`Retrieve x Where a = 5`, `Retrieve x Where a = "5"`},
		{`Retrieve x Where a = 5`, `Retrieve x Where a = 5.0`},
		{`Retrieve x Where a = 5.`, `Retrieve x Where a = 5.0`}, // "5." is INT then PERIOD
		{`Retrieve a-b`, `Retrieve a - b`},
		{`Retrieve a-1`, `Retrieve a-b`},
		{`Retrieve x Where a = 5`, `Retrieve x Where a = -5`},
		{`Retrieve x Where a = 1..2`, `Retrieve x Where a = 1.2`},
	}
	for _, p := range differ {
		a, _, _ := checkNormalize(t, p[0])
		b, _, _ := checkNormalize(t, p[1])
		if a == b {
			t.Errorf("%q and %q share the key %q", p[0], p[1], a)
		}
	}
	for _, bad := range []string{`Retrieve "open`, "Retrieve \"a\nb\"", `Retrieve (* open`, `Retrieve a ? b`, "Retrieve \x00"} {
		if _, _, ok := checkNormalize(t, bad); ok {
			t.Errorf("%q normalised without error", bad)
		}
	}
}

func TestNormalizeReusesBuffers(t *testing.T) {
	src := `From student Retrieve name, student-nbr Where soc-sec-no = 200000123 and name = "x".`
	key, lits, err := Normalize(src, make([]byte, 0, 256), make([]Literal, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		key, lits, _ = Normalize(src, key[:0], lits[:0])
	})
	if allocs != 0 {
		t.Errorf("Normalize allocates %.0f times per call into warm buffers, want 0", allocs)
	}
}

// FuzzNormalize: on any input Normalize agrees with lexer.All (same
// error, same literal vector, key = the tokens' shape); rewriting every
// literal to another of its kind keeps the key; and two inputs with equal
// keys have equal token kinds and equal non-literal text.
func FuzzNormalize(f *testing.F) {
	for _, s := range [][2]string{
		{`From student Retrieve name, student-nbr Where soc-sec-no = 200000123.`, `From student Retrieve name, student-nbr Where soc-sec-no = 7.`},
		{`From course Retrieve title, credits Where title >= "Course 0001" and title < "Course 0005".`, `Retrieve x`},
		{`Retrieve name of student Where salary-1 > -2.50 (* c *) -- d`, "Retrieve \"a\"\"b\""},
		{`Insert student (name := "John ""J"" Doe", soc-sec-no := 456887766).`, `Class c ( a: integer (1..999) );`},
		{`Retrieve "open`, `Retrieve (* open`},
		{"a-b a -b a- b a-1 1-a 1.a 1..2 1.2.3 <= <> >= := : . ..", "\"\n\""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ka, ta, okA := checkNormalize(t, a)
		kb, tb, okB := checkNormalize(t, b)
		if okA && okB && ka == kb {
			if len(ta) != len(tb) {
				t.Fatalf("%q and %q share key %q but have %d and %d tokens", a, b, ka, len(ta), len(tb))
			}
			for i := range ta {
				if ta[i].Kind != tb[i].Kind || (!isLiteral(ta[i].Kind) && ta[i].Text != tb[i].Text) {
					t.Fatalf("%q and %q share key %q but differ at token %d: %v %q vs %v %q",
						a, b, ka, i, ta[i].Kind, ta[i].Text, tb[i].Kind, tb[i].Text)
				}
			}
		}
		if !okA {
			return
		}
		// Same statement, other literal values: the key must not move.
		var re strings.Builder
		for _, tk := range ta {
			switch tk.Kind {
			case token.INT:
				re.WriteString(" 42")
			case token.NUMBER:
				re.WriteString(" 4.25")
			case token.STRING:
				re.WriteString(` "q""r"`)
			default:
				re.WriteString(" " + tk.Text)
			}
		}
		if kr, _, ok := checkNormalize(t, re.String()); !ok || kr != ka {
			t.Fatalf("%q re-spelled as %q: key %q (ok=%v), want %q", a, re.String(), kr, ok, ka)
		}
	})
}

var sinkKey []byte

func BenchmarkNormalizePointRead(b *testing.B) {
	src := `From student Retrieve name, student-nbr Where soc-sec-no = 200004321.`
	key, lits := make([]byte, 0, 256), make([]Literal, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, lits, _ = Normalize(src, key[:0], lits[:0])
	}
	sinkKey = key
}

func BenchmarkLexAllPointRead(b *testing.B) {
	src := `From student Retrieve name, student-nbr Where soc-sec-no = 200004321.`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := New(src)
		for {
			t, _ := l.Next()
			if t.Kind == token.EOF {
				break
			}
		}
	}
}
