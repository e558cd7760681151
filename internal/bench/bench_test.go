package bench

import (
	"strings"
	"testing"

	"sim"
)

var tiny = Workload{
	Departments: 2,
	Instructors: 4,
	Students:    20,
	Courses:     8,
	EnrollPer:   2,
	AdvisePer:   5,
}

func TestBuildUniversityWorkload(t *testing.T) {
	db, err := BuildUniversity(sim.Config{}, tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := db.Query(`From student Retrieve Table Distinct count(soc-sec-no of student).`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows()[0][0].String(); got != "20" {
		t.Errorf("students loaded = %s", got)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Errorf("workload violates the schema's assertions: %v", err)
	}
}

func TestExperimentsProduceTables(t *testing.T) {
	type exp struct {
		name string
		fn   func() (*Table, error)
	}
	exps := []exp{
		{"fig2", Fig2},
		{"dml", DML},
		{"t1", func() (*Table, error) { return T1(tiny, 1) }},
		{"t2", func() (*Table, error) { return T2(tiny, 1) }},
		{"t3", func() (*Table, error) { return T3(20, 4, 1) }},
		{"t4", func() (*Table, error) { return T4(tiny, 1) }},
		{"t5", func() (*Table, error) { return T5(tiny, 1) }},
		{"t6", func() (*Table, error) { return T6(tiny, 1) }},
		{"t8", func() (*Table, error) { return T8(tiny, 1) }},
	}
	for _, e := range exps {
		tbl, err := e.fn()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", e.name)
		}
		out := tbl.Format()
		if !strings.Contains(out, tbl.Title) {
			t.Errorf("%s format lacks its title", e.name)
		}
	}
}

func TestT7SmallChains(t *testing.T) {
	// T7 builds its own databases; smoke-test the chain builder instead
	// (the full T7 sweep runs in the harness).
	db, err := BuildPrereqChain(sim.Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := db.Query(`From course Retrieve count(transitive(prerequisites)) Where course-no = 5.`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows()[0][0].String(); got != "4" {
		t.Errorf("chain closure = %s, want 4", got)
	}
}

func TestStripVerifies(t *testing.T) {
	out := stripVerifies()
	if strings.Contains(strings.ToLower(out), "verify") {
		t.Error("verifies survive stripping")
	}
	if !strings.Contains(strings.ToLower(out), "class person") {
		t.Error("classes stripped too")
	}
}
