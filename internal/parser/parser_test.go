package parser

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sim/internal/ast"
	"sim/internal/university"
)

func parseSchemaOK(t *testing.T, src string) *ast.Schema {
	t.Helper()
	sch, err := ParseSchema(src)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	return sch
}

func TestParseUniversitySchema(t *testing.T) {
	sch := parseSchemaOK(t, university.DDL)
	var types, classes, verifies int
	for _, d := range sch.Decls {
		switch d.(type) {
		case *ast.TypeDecl:
			types++
		case *ast.ClassDecl:
			classes++
		case *ast.VerifyDecl:
			verifies++
		}
	}
	if types != 2 || classes != 6 || verifies != 2 {
		t.Errorf("got %d types, %d classes, %d verifies; want 2, 6, 2", types, classes, verifies)
	}
}

func TestParseClassDetail(t *testing.T) {
	sch := parseSchemaOK(t, university.DDL)
	var instructor *ast.ClassDecl
	for _, d := range sch.Decls {
		if c, ok := d.(*ast.ClassDecl); ok && strings.EqualFold(c.Name, "instructor") {
			instructor = c
		}
	}
	if instructor == nil {
		t.Fatal("instructor not parsed")
	}
	if len(instructor.Supers) != 1 || !strings.EqualFold(instructor.Supers[0], "person") {
		t.Errorf("instructor supers = %v", instructor.Supers)
	}
	byName := map[string]ast.AttrDecl{}
	for _, a := range instructor.Attrs {
		byName[strings.ToLower(a.Name)] = a
	}
	ct := byName["courses-taught"]
	if ct.Inverse != "teachers" {
		t.Errorf("courses-taught inverse = %q", ct.Inverse)
	}
	if !ct.Options.MV || ct.Options.Max != 3 || !ct.Options.Distinct {
		t.Errorf("courses-taught options = %+v", ct.Options)
	}
	sal := byName["salary"]
	nt, ok := sal.Type.(*ast.NumberType)
	if !ok || nt.Precision != 9 || nt.Scale != 2 {
		t.Errorf("salary type = %#v", sal.Type)
	}
}

func TestParseMultipleInheritance(t *testing.T) {
	sch := parseSchemaOK(t, `Subclass TA of Student and Instructor ( x: integer );`)
	c := sch.Decls[0].(*ast.ClassDecl)
	if len(c.Supers) != 2 {
		t.Fatalf("supers = %v", c.Supers)
	}
}

func TestParseVerify(t *testing.T) {
	sch := parseSchemaOK(t, `Verify v1 on Student assert sum(credits of courses-enrolled) >= 12 else "too few";`)
	v := sch.Decls[0].(*ast.VerifyDecl)
	if v.Name != "v1" || v.Class != "Student" || v.ElseMsg != "too few" {
		t.Errorf("verify = %+v", v)
	}
	cmp, ok := v.Assert.(*ast.Binary)
	if !ok || cmp.Op != ast.OpGE {
		t.Fatalf("assert = %#v", v.Assert)
	}
	agg, ok := cmp.L.(*ast.Agg)
	if !ok || agg.Func != ast.AggSum {
		t.Fatalf("assert lhs = %#v", cmp.L)
	}
	if len(agg.Inner.Steps) != 2 {
		t.Errorf("sum inner path = %v", agg.Inner)
	}
}

// stmt parses one DML statement or fails the test.
func stmt(t *testing.T, src string) ast.Stmt {
	t.Helper()
	s, err := ParseStmt(src)
	if err != nil {
		t.Fatalf("ParseStmt(%q): %v", src, err)
	}
	return s
}

func TestParseSimpleRetrieve(t *testing.T) {
	s := stmt(t, `From Student Retrieve Name, Name of Advisor.`).(*ast.RetrieveStmt)
	if len(s.Perspectives) != 1 || !strings.EqualFold(s.Perspectives[0].Class, "Student") {
		t.Errorf("perspectives = %v", s.Perspectives)
	}
	if len(s.Targets) != 2 {
		t.Fatalf("targets = %v", s.Targets)
	}
	p2 := s.Targets[1].(*ast.Path)
	if len(p2.Steps) != 2 || p2.Steps[0].Name != "Name" || p2.Steps[1].Name != "Advisor" {
		t.Errorf("second target path = %v", p2)
	}
}

// The paper's §4.4 binding example.
func TestParseBindingExample(t *testing.T) {
	s := stmt(t, `
Retrieve Name of Student,
  Title of Courses-Enrolled of Student,
  Credits of Courses-Enrolled of Student,
  Name of Teachers of Courses-Enrolled of Student
Where Soc-Sec-No of Student = 456887766.`).(*ast.RetrieveStmt)
	if len(s.Targets) != 4 {
		t.Fatalf("targets = %d", len(s.Targets))
	}
	last := s.Targets[3].(*ast.Path)
	if len(last.Steps) != 4 {
		t.Errorf("deep path steps = %v", last.Steps)
	}
	if s.Where == nil {
		t.Error("where missing")
	}
}

// §4.9 example 1: insert with EVA entity selection.
func TestParseInsertExample1(t *testing.T) {
	s := stmt(t, `
Insert student(name := "John Doe",
  soc-sec-no := 456887766,
  courses-enrolled := course with (title = "Algebra I")).`).(*ast.InsertStmt)
	if !strings.EqualFold(s.Class, "student") || s.FromClass != "" {
		t.Errorf("insert head = %+v", s)
	}
	if len(s.Assigns) != 3 {
		t.Fatalf("assigns = %d", len(s.Assigns))
	}
	ce := s.Assigns[2]
	if ce.Entity == nil || !strings.EqualFold(ce.Entity.Name, "course") {
		t.Fatalf("courses-enrolled assign = %+v", ce)
	}
	if ce.Entity.Where == nil {
		t.Error("entity selection where missing")
	}
}

// §4.9 example 2: role-extending insert.
func TestParseInsertExample2(t *testing.T) {
	s := stmt(t, `
Insert instructor
From person Where name = "John Doe"
(employee-nbr := 1729).`).(*ast.InsertStmt)
	if !strings.EqualFold(s.FromClass, "person") || s.FromWhere == nil {
		t.Errorf("from clause = %+v", s)
	}
	if len(s.Assigns) != 1 || !strings.EqualFold(s.Assigns[0].Attr, "employee-nbr") {
		t.Errorf("assigns = %+v", s.Assigns)
	}
}

// §4.9 example 3: modify with exclude and EVA assignment.
func TestParseModifyExample3(t *testing.T) {
	s := stmt(t, `
Modify student (
  courses-enrolled := exclude courses-enrolled with (title = "Algebra I"),
  advisor := instructor with (name = "Joe Bloke"))
Where name of student = "John Doe"`).(*ast.ModifyStmt)
	if len(s.Assigns) != 2 {
		t.Fatalf("assigns = %d", len(s.Assigns))
	}
	if s.Assigns[0].Mode != ast.AssignExclude {
		t.Errorf("first assign mode = %v", s.Assigns[0].Mode)
	}
	if !strings.EqualFold(s.Assigns[0].Entity.Name, "courses-enrolled") {
		t.Errorf("exclude target = %v", s.Assigns[0].Entity.Name)
	}
	if s.Assigns[1].Mode != ast.AssignSet || s.Assigns[1].Entity == nil {
		t.Errorf("second assign = %+v", s.Assigns[1])
	}
	if s.Where == nil {
		t.Error("where missing")
	}
}

// §4.9 example 4: arithmetic update with aggregate + quantifier predicate.
func TestParseModifyExample4(t *testing.T) {
	s := stmt(t, `
Modify instructor( salary := 1.1 * salary)
Where count(courses-taught) of instructor > 3 and
  assigned-department neq some(major-department of advisees).`).(*ast.ModifyStmt)
	mul, ok := s.Assigns[0].Value.(*ast.Binary)
	if !ok || mul.Op != ast.OpMul {
		t.Fatalf("salary rhs = %#v", s.Assigns[0].Value)
	}
	and := s.Where.(*ast.Binary)
	if and.Op != ast.OpAnd {
		t.Fatalf("where = %#v", s.Where)
	}
	left := and.L.(*ast.Binary)
	agg, ok := left.L.(*ast.Agg)
	if !ok || agg.Func != ast.AggCount || len(agg.Outer) != 1 {
		t.Fatalf("count(...) of instructor = %#v", left.L)
	}
	right := and.R.(*ast.Binary)
	if right.Op != ast.OpNEQ {
		t.Fatalf("neq = %#v", right)
	}
	q, ok := right.R.(*ast.Quantified)
	if !ok || q.Quant != ast.QSome {
		t.Fatalf("some(...) = %#v", right.R)
	}
}

// §4.9 example 5: count distinct of a transitive closure.
func TestParseTransitiveExample5(t *testing.T) {
	s := stmt(t, `
From course
Retrieve count distinct (transitive(prerequisite-of))
Where title = "Quantum Chromodynamics".`).(*ast.RetrieveStmt)
	agg := s.Targets[0].(*ast.Agg)
	if !agg.Distinct || agg.Func != ast.AggCount {
		t.Errorf("agg = %+v", agg)
	}
	if !agg.Inner.Steps[0].Transitive {
		t.Error("inner step not transitive")
	}
}

// §4.7 transitive closure in a target path.
func TestParseTransitivePath(t *testing.T) {
	s := stmt(t, `
Retrieve Title of Transitive(prerequisites) of Course
Where Title of Course = "Calculus I".`).(*ast.RetrieveStmt)
	p := s.Targets[0].(*ast.Path)
	if len(p.Steps) != 3 || !p.Steps[1].Transitive {
		t.Errorf("path = %v", p)
	}
}

// §4.9 example 7: multi-perspective query with ISA and NOT.
func TestParseMultiPerspectiveExample7(t *testing.T) {
	s := stmt(t, `
From student, instructor
Retrieve name of student, name of Instructor
Where birthdate of student < birthdate of instructor and
  advisor of student NEQ instructor and
  not instructor isa teaching-assistant.`).(*ast.RetrieveStmt)
	if len(s.Perspectives) != 2 {
		t.Fatalf("perspectives = %v", s.Perspectives)
	}
	// The where is (a and b) and (not isa).
	and := s.Where.(*ast.Binary)
	not, ok := and.R.(*ast.Unary)
	if !ok || not.Op != ast.OpNot {
		t.Fatalf("not-isa = %#v", and.R)
	}
	isa, ok := not.X.(*ast.Isa)
	if !ok || !strings.EqualFold(isa.Class, "teaching-assistant") {
		t.Fatalf("isa = %#v", not.X)
	}
}

func TestParseReferenceVariables(t *testing.T) {
	s := stmt(t, `From student s1, student s2 Retrieve name of s1, name of s2 Where advisor of s1 = advisor of s2.`).(*ast.RetrieveStmt)
	if s.Perspectives[0].Var != "s1" || s.Perspectives[1].Var != "s2" {
		t.Errorf("vars = %+v", s.Perspectives)
	}
}

func TestParseRoleConversionAS(t *testing.T) {
	s := stmt(t, `From Student Retrieve Teaching-Load of Student as Teaching-Assistant.`).(*ast.RetrieveStmt)
	p := s.Targets[0].(*ast.Path)
	if !strings.EqualFold(p.Steps[1].As, "teaching-assistant") {
		t.Errorf("as = %v", p.Steps)
	}
	s = stmt(t, `From Student Retrieve Student-No of Spouse as Student of Student.`).(*ast.RetrieveStmt)
	p = s.Targets[0].(*ast.Path)
	if len(p.Steps) != 3 || !strings.EqualFold(p.Steps[1].As, "student") {
		t.Errorf("spouse as student = %v", p.Steps)
	}
}

func TestParseInverseReference(t *testing.T) {
	s := stmt(t, `From Instructor Retrieve name of INVERSE(ADVISOR).`).(*ast.RetrieveStmt)
	p := s.Targets[0].(*ast.Path)
	if !p.Steps[1].Inverse || !strings.EqualFold(p.Steps[1].Name, "advisor") {
		t.Errorf("inverse step = %+v", p.Steps[1])
	}
}

func TestParseOutputModes(t *testing.T) {
	if s := stmt(t, `From c Retrieve x.`).(*ast.RetrieveStmt); s.Mode != ast.OutputTable {
		t.Errorf("default mode = %v", s.Mode)
	}
	if s := stmt(t, `From c Retrieve table distinct x.`).(*ast.RetrieveStmt); s.Mode != ast.OutputTableDistinct {
		t.Errorf("mode = %v", s.Mode)
	}
	if s := stmt(t, `From c Retrieve structure x, y of z.`).(*ast.RetrieveStmt); s.Mode != ast.OutputStructure {
		t.Errorf("mode = %v", s.Mode)
	}
}

func TestParseOrderBy(t *testing.T) {
	s := stmt(t, `From student Retrieve name Order By name, student-nbr Where name neq null.`).(*ast.RetrieveStmt)
	if len(s.OrderBy) != 2 {
		t.Errorf("order by = %v", s.OrderBy)
	}
}

func TestParseFactoredQualification(t *testing.T) {
	s := stmt(t, `From Student Retrieve (Title, Credits) of Courses-Enrolled.`).(*ast.RetrieveStmt)
	if len(s.Targets) != 2 {
		t.Fatalf("targets = %d", len(s.Targets))
	}
	for i, tgt := range s.Targets {
		p := tgt.(*ast.Path)
		if len(p.Steps) != 2 || !strings.EqualFold(p.Steps[1].Name, "courses-enrolled") {
			t.Errorf("target %d = %v", i, p)
		}
	}
}

func TestParseDelete(t *testing.T) {
	s := stmt(t, `Delete student Where name = "John Doe".`).(*ast.DeleteStmt)
	if !strings.EqualFold(s.Class, "student") || s.Where == nil {
		t.Errorf("delete = %+v", s)
	}
	s = stmt(t, `Delete student.`).(*ast.DeleteStmt)
	if s.Where != nil {
		t.Error("bare delete should have nil where")
	}
}

func TestParseNullAssignment(t *testing.T) {
	s := stmt(t, `Modify student (advisor := null) Where name = "X".`).(*ast.ModifyStmt)
	lit, ok := s.Assigns[0].Value.(*ast.Lit)
	if !ok || !lit.Val.IsNull() {
		t.Errorf("null assign = %#v", s.Assigns[0].Value)
	}
}

func TestParseIncludeEVA(t *testing.T) {
	s := stmt(t, `Modify student (courses-enrolled := include course with (title = "Algebra I")) Where name = "X".`).(*ast.ModifyStmt)
	if s.Assigns[0].Mode != ast.AssignInclude || s.Assigns[0].Entity == nil {
		t.Errorf("include = %+v", s.Assigns[0])
	}
}

func TestParseLike(t *testing.T) {
	s := stmt(t, `From course Retrieve title Where title like "Quantum*".`).(*ast.RetrieveStmt)
	b := s.Where.(*ast.Binary)
	if b.Op != ast.OpLike {
		t.Errorf("op = %v", b.Op)
	}
}

func TestParseStmts(t *testing.T) {
	ss, texts, err := ParseStmts(`
Insert course (course-no := 1, title := "A. B.", credits := 3).
Insert course (course-no := 2.5, title := "B", credits := 3).
From course Retrieve title.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 || len(texts) != 3 {
		t.Fatalf("got %d statements, %d texts", len(ss), len(texts))
	}
	want := []string{
		`Insert course (course-no := 1, title := "A. B.", credits := 3).`,
		`Insert course (course-no := 2.5, title := "B", credits := 3).`,
		`From course Retrieve title.`,
	}
	for i, w := range want {
		if texts[i] != w {
			t.Errorf("statement %d text %q, want %q", i+1, texts[i], w)
		}
		// Each text parses on its own to the statement it sits beside.
		if s, err := ParseStmt(texts[i]); err != nil || fmt.Sprintf("%T", s) != fmt.Sprintf("%T", ss[i]) {
			t.Errorf("statement %d text reparses to %T (err %v), want %T", i+1, s, err, ss[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`Retrieve`,                      // empty target list
		`From Retrieve x`,               // missing class
		`Modify student set x = 1`,      // wrong syntax
		`Insert student (x := include)`, // include with nothing
		`From c Retrieve x Where`,       // dangling where
		`From c Retrieve count(x`,       // unclosed paren
		`Class A ( x integer );`,        // missing colon (DDL via ParseStmt)
		`From c Retrieve x Order name`,  // missing BY
		`Verify v on c assert x`,        // verify is DDL, not DML
	}
	for _, src := range bad {
		if _, err := ParseStmt(src); err == nil {
			t.Errorf("ParseStmt(%q) succeeded, want error", src)
		}
	}
	badDDL := []string{
		`Class A ( x: integer ; )`,       // missing terminating ;
		`Type t = symbolic ();`,          // empty symbolic
		`Class A ( x: integer (9..1) );`, // empty range
		`Class A ( x: string[0] );`,      // zero length
		`Class A ( m: integer mv (max 0) );`,
	}
	for _, src := range badDDL {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", src)
		}
	}
}

func TestAggregateKeywordAsName(t *testing.T) {
	// MAX used as an attribute name, not an aggregate.
	s := stmt(t, `From c Retrieve max Where max > 3.`).(*ast.RetrieveStmt)
	if _, ok := s.Targets[0].(*ast.Path); !ok {
		t.Errorf("max as name parsed as %#v", s.Targets[0])
	}
}

func TestParseCurrentDate(t *testing.T) {
	old := timeNow
	timeNow = func() time.Time { return time.Date(1988, 6, 1, 12, 0, 0, 0, time.UTC) }
	defer func() { timeNow = old }()
	s := stmt(t, `From person Retrieve name Where birthdate < current date.`).(*ast.RetrieveStmt)
	cmp := s.Where.(*ast.Binary)
	lit, ok := cmp.R.(*ast.Lit)
	if !ok || lit.Val.String() != "1988-06-01" {
		t.Errorf("current date = %#v", cmp.R)
	}
}

func TestPathString(t *testing.T) {
	s := stmt(t, `From Student Retrieve Name of Advisor as Teaching-Assistant.`).(*ast.RetrieveStmt)
	p := s.Targets[0].(*ast.Path)
	got := p.String()
	if !strings.Contains(got, "of Advisor as Teaching-Assistant") {
		t.Errorf("String() = %q", got)
	}
}
