package sim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sim"
	"sim/internal/luc"
	"sim/internal/university"
	"sim/internal/value"
)

func xQuery(t *testing.T, db *sim.Database, q string) *sim.Result {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return r
}

func xExec(t *testing.T, db *sim.Database, s string) int {
	t.Helper()
	n, err := db.Exec(s)
	if err != nil {
		t.Fatalf("Exec(%q): %v", s, err)
	}
	return n
}

func xSingle(t *testing.T, db *sim.Database, q string) value.Value {
	t.Helper()
	r := xQuery(t, db, q)
	if r.NumRows() != 1 || len(r.Rows()[0]) != 1 {
		t.Fatalf("Query(%q) did not return a single value", q)
	}
	return r.Rows()[0][0]
}

// A larger population through the full stack: load, query under the
// optimizer, mutate, and verify global integrity. Skipped with -short.
func TestScaleWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	w := university.Workload{
		Departments: 8,
		Instructors: 80,
		Students:    1500,
		Courses:     150,
		EnrollPer:   3,
		AdvisePer:   10,
	}
	db := openUniversity(t, sim.Config{Mapping: luc.Config{Indexes: []string{"person.name", "course.title"}}}, w)

	// Cardinalities.
	if v := xSingle(t, db, `From student Retrieve Table Distinct count(soc-sec-no of student).`); v.String() != "1500" {
		t.Fatalf("students = %s", v)
	}
	if v := xSingle(t, db, `From course Retrieve Table Distinct count(course-no of course).`); v.String() != "150" {
		t.Fatalf("courses = %s", v)
	}
	// Enrollment instances: 1500 × 3 (the mapper's maintained statistic).
	enrolledAttr := db.Catalog().Class("student").Attr("courses-enrolled")
	if n, err := db.Mapper().RelCount(enrolledAttr); err != nil || n != 4500 {
		t.Fatalf("enrollment instances = %d, %v", n, err)
	}

	// Optimizer point queries stay fast and correct at scale.
	r := xQuery(t, db, `From person Retrieve name Where soc-sec-no = 200000777.`)
	if r.NumRows() != 1 || r.Rows()[0][0].String() != "Student 00777" {
		t.Errorf("point query = %v", r.Rows())
	}
	ex, err := db.Explain(`From student Retrieve soc-sec-no Where name of advisor = "Instructor 0007".`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "pivot") {
		t.Errorf("explain = %q, want pivot", ex)
	}
	r = xQuery(t, db, `From student Retrieve soc-sec-no Where name of advisor = "Instructor 0007".`)
	if r.NumRows() != 10 {
		t.Errorf("advisees found = %d, want 10", r.NumRows())
	}

	// A broad mutation with verify enforcement.
	n := xExec(t, db, `Modify instructor (salary := salary + 500) Where salary < 30040.`)
	if n != 40 {
		t.Errorf("raised %d instructors, want 40", n)
	}
	// Global integrity still holds.
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Bulk delete cascades cleanly.
	n = xExec(t, db, `Delete student Where soc-sec-no >= 200001400.`)
	if n != 100 {
		t.Errorf("deleted %d students, want 100", n)
	}
	if n, err := db.Mapper().RelCount(enrolledAttr); err != nil || n != 4200 {
		t.Errorf("instances after delete = %d, %v; want 4200", n, err)
	}
}

// Oversized index keys fail cleanly and atomically.
func TestOversizedIndexKeyRollsBack(t *testing.T) {
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(`Class Doc ( body: string unique );`); err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 600)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := db.Exec(fmt.Sprintf(`Insert doc (body := %q).`, long)); err == nil {
		t.Fatal("oversized unique value accepted")
	}
	r := xQuery(t, db, `From doc Retrieve body.`)
	if r.NumRows() != 0 {
		t.Error("failed insert left a row")
	}
	xExec(t, db, `Insert doc (body := "short").`)
}

// TestCommittedUpdateVisibleAfterEviction reproduces the stale snapshot
// read found by the layered benchmark: on a dataset larger than the buffer
// pool, committed updates whose frames a full scan evicts must still be
// what the next snapshot reads — not the pre-images their own
// copy-on-write left on the version chains.
func TestCommittedUpdateVisibleAfterEviction(t *testing.T) {
	w := university.Workload{Departments: 4, Instructors: 60, Students: 600, Courses: 20, EnrollPer: 1, AdvisePer: 5}
	db := openUniversity(t, sim.Config{PoolPages: 16}, w)
	ctx := context.Background()

	const transfers = 100
	want := make(map[int]int64, transfers) // soc-sec-no -> new advisor's employee-nbr
	for i := 0; i < transfers; i++ {
		ssn := 200000000 + i*3
		adv := int64(1001 + (i*3/w.AdvisePer+7)%w.Instructors)
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range []string{
			fmt.Sprintf(`Modify student (advisor := instructor with (employee-nbr = %d)) Where soc-sec-no = %d.`, adv, ssn),
			fmt.Sprintf(`Modify student (major-department := department with (dept-nbr = %d)) Where soc-sec-no = %d.`, 100+(i+1)%w.Departments, ssn),
		} {
			if _, err := tx.Exec(ctx, stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want[ssn] = adv
	}

	xQuery(t, db, `From student Retrieve name, name of advisor.`) // cycles the whole pool

	stale := 0
	for ssn, adv := range want {
		got := xSingle(t, db, fmt.Sprintf(`From student Retrieve employee-nbr of advisor Where soc-sec-no = %d.`, ssn))
		if got.IsNull() || got.Int() != adv {
			stale++
			t.Errorf("student %d reads advisor %v after its transfer committed, want %d", ssn, got, adv)
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d transferred students read back stale", stale, transfers)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
