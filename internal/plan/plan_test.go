package plan

import (
	"fmt"
	"strings"
	"testing"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/luc"
	"sim/internal/parser"
	"sim/internal/query"
	"sim/internal/university"
	"sim/internal/value"
)

// testEnv builds a populated mapper for optimizer tests.
func testEnv(t *testing.T, cfg luc.Config, students int) (*catalog.Catalog, *luc.Mapper) {
	t.Helper()
	sch, err := parser.ParseSchema(university.DDL)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(sch)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dmsii.OpenMemory(dmsii.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if cfg.Indexes == nil {
		cfg.Indexes = []string{"person.name"}
	}
	m, err := luc.New(store, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	student := cat.Class("student")
	instructor := cat.Class("instructor")
	name := catalog.ResolveAttr(student, "name")
	advisor := catalog.ResolveAttr(student, "advisor")
	var instructors []value.Surrogate
	for i := 0; i < 10; i++ {
		in, err := m.NewEntity(instructor)
		if err != nil {
			t.Fatal(err)
		}
		instructors = append(instructors, in)
	}
	for i := 0; i < students; i++ {
		s, err := m.NewEntity(student)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetSingle(s, name, value.NewString(fmt.Sprintf("S%05d", i))); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := m.IncludeEVA(s, advisor, instructors[(i/20)%10]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return cat, m
}

func optimize(t *testing.T, cat *catalog.Catalog, m *luc.Mapper, dml string) *Plan {
	t.Helper()
	s, err := parser.ParseStmt(dml)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := query.Bind(cat, s.(*ast.RetrieveStmt))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(tree, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScanWhenNoPredicate(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 100)
	p := optimize(t, cat, m, `From student Retrieve name.`)
	if _, ok := p.Access[0].(*ScanAccess); !ok {
		t.Errorf("access = %T, want scan", p.Access[0])
	}
}

func TestUniqueBeatsEverything(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 100)
	p := optimize(t, cat, m, `From person Retrieve name Where soc-sec-no = 5.`)
	u, ok := p.Access[0].(*UniqueAccess)
	if !ok {
		t.Fatalf("access = %T, want unique", p.Access[0])
	}
	if u.Key.Int() != 5 {
		t.Errorf("key = %v", u.Key)
	}
}

func TestIndexRangeChosenForSelectiveRange(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 500)
	p := optimize(t, cat, m, `From person Retrieve soc-sec-no Where name >= "S00490" and name <= "S00495".`)
	if _, ok := p.Access[0].(*RangeAccess); !ok {
		t.Errorf("access = %s, want index range", p.Access[0].Describe(nil))
	}
}

func TestScanChosenForWideRange(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 500)
	p := optimize(t, cat, m, `From person Retrieve soc-sec-no Where name >= "A".`)
	if _, ok := p.Access[0].(*ScanAccess); !ok {
		t.Errorf("access = %s, want scan for an unselective range", p.Access[0].Describe(nil))
	}
}

func TestPivotChosenForRelatedPredicate(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 500)
	p := optimize(t, cat, m, `From student Retrieve soc-sec-no Where name of advisor = "X".`)
	pv, ok := p.Access[0].(*PivotAccess)
	if !ok {
		t.Fatalf("access = %s, want pivot", p.Access[0].Describe(nil))
	}
	if len(pv.Up) != 1 || !strings.EqualFold(pv.Up[0].Name, "advisor") {
		t.Errorf("pivot path = %v", pv.Up)
	}
}

func TestNoPivotThroughTransitive(t *testing.T) {
	cat, m := testEnv(t, luc.Config{Indexes: []string{"person.name", "course.title"}}, 100)
	p := optimize(t, cat, m, `From course Retrieve course-no Where title of transitive(prerequisites) = "X".`)
	if _, ok := p.Access[0].(*PivotAccess); ok {
		t.Error("pivot chosen through a transitive edge")
	}
}

func TestSargExtraction(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 50)
	// OR blocks sargs; only top-level conjuncts count.
	p := optimize(t, cat, m, `From person Retrieve name Where soc-sec-no = 5 or name = "x".`)
	if _, ok := p.Access[0].(*ScanAccess); !ok {
		t.Errorf("OR predicate used an index: %s", p.Access[0].Describe(nil))
	}
	// Reversed literal side still sargs.
	p = optimize(t, cat, m, `From person Retrieve name Where 5 = soc-sec-no.`)
	if _, ok := p.Access[0].(*UniqueAccess); !ok {
		t.Errorf("reversed comparison not sargable: %s", p.Access[0].Describe(nil))
	}
}

func TestExplainMentionsEveryRoot(t *testing.T) {
	cat, m := testEnv(t, luc.Config{}, 50)
	p := optimize(t, cat, m, `From student s1, student s2 Retrieve name of s1 Where soc-sec-no of s1 = soc-sec-no of s2.`)
	ex := p.Explain(nil)
	if !strings.Contains(ex, "s1") || !strings.Contains(ex, "s2") {
		t.Errorf("explain = %q", ex)
	}
	if len(p.Access) != 2 {
		t.Errorf("access paths = %d", len(p.Access))
	}
}

func TestCostMonotoneInCardinality(t *testing.T) {
	catSmall, mSmall := testEnv(t, luc.Config{}, 50)
	catBig, mBig := testEnv(t, luc.Config{}, 1000)
	q := `From student Retrieve name.`
	ps := optimize(t, catSmall, mSmall, q)
	pb := optimize(t, catBig, mBig, q)
	if ps.Est >= pb.Est {
		t.Errorf("estimated cost not monotone: %f vs %f", ps.Est, pb.Est)
	}
}
