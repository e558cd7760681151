package sim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Verify v2: salary + bonus < 100000.
func TestVerifyDirectViolation(t *testing.T) {
	db := universityDB(t, Config{})
	_, err := db.Exec(`Modify instructor (salary := 99000, bonus := 5000) Where name = "Bob Stone".`)
	if err == nil || !strings.Contains(err.Error(), "too much money") {
		t.Fatalf("v2 violation not reported: %v", err)
	}
	// Statement rolled back atomically: salary unchanged.
	r := mustQuery(t, db, `From instructor Retrieve salary, bonus Where name = "Bob Stone".`)
	expectRows(t, r, [][]string{{"45000", "?"}})
	// A compliant raise passes.
	mustExec(t, db, `Modify instructor (salary := 80000, bonus := 10000) Where name = "Bob Stone".`)
}

// Verify v1: sum(credits of courses-enrolled) >= 12. A NULL sum (no
// enrollments) passes — only definite falsity violates.
func TestVerifyAggregateOverEVA(t *testing.T) {
	db := universityDB(t, Config{})
	// Dropping Algebra I (12 credits) from Tom leaves Calculus I (5): the
	// sum 5 < 12 violates v1.
	_, err := db.Exec(`Modify student (courses-enrolled := exclude courses-enrolled with (title = "Algebra I")) Where name = "Tom Thumb".`)
	if err == nil || !strings.Contains(err.Error(), "too few credits") {
		t.Fatalf("v1 violation not reported: %v", err)
	}
	// Rolled back: Tom still enrolled in both.
	if v := singleValue(t, db, `From student Retrieve count(courses-enrolled) Where name = "Tom Thumb".`); v.String() != "2" {
		t.Errorf("enrollment after rollback = %s", v)
	}
	// Dropping everything leaves a NULL sum → passes.
	mustExec(t, db, `Modify student (courses-enrolled := null) Where name = "Tom Thumb".`)
}

// Trigger detection across a relationship: lowering a course's credits
// must re-check the enrolled students, not just the course.
func TestVerifyTriggeredThroughInverse(t *testing.T) {
	db := universityDB(t, Config{})
	// John's only course is Algebra I at 12 credits; reducing it to 10
	// breaks v1 for John even though the statement modifies a course.
	_, err := db.Exec(`Modify course (credits := 10) Where title = "Algebra I".`)
	if err == nil || !strings.Contains(err.Error(), "too few credits") {
		t.Fatalf("cross-entity trigger missed: %v", err)
	}
	// Rolled back.
	if v := singleValue(t, db, `From course Retrieve credits Where title = "Algebra I".`); v.String() != "12" {
		t.Errorf("credits after rollback = %s", v)
	}
	// Raising credits is fine.
	mustExec(t, db, `Modify course (credits := 15) Where title = "Algebra I".`)
}

// Inserting an entity of the verify class triggers an immediate check.
func TestVerifyOnInsert(t *testing.T) {
	db := universityDB(t, Config{})
	_, err := db.Exec(`Insert student (name := "Under Achiever", soc-sec-no := 900000001,
	  courses-enrolled := course with (title = "Calculus I")).`)
	if err == nil || !strings.Contains(err.Error(), "too few credits") {
		t.Fatalf("v1 not checked on insert: %v", err)
	}
	// Rolled back entirely: the person does not exist.
	r := mustQuery(t, db, `From person Retrieve name Where name = "Under Achiever".`)
	if r.NumRows() != 0 {
		t.Error("violating insert left a partial entity")
	}
	// With no enrollments the sum is NULL → allowed.
	mustExec(t, db, `Insert student (name := "Under Achiever", soc-sec-no := 900000001).`)
}

func TestCheckIntegrityScansEverything(t *testing.T) {
	db := universityDB(t, Config{})
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("clean database reported violation: %v", err)
	}
}

func TestUniqueViolationRollsBack(t *testing.T) {
	db := universityDB(t, Config{})
	_, err := db.Exec(`Insert person (name := "Imposter", soc-sec-no := 456887766).`)
	if err == nil || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("duplicate ssn accepted: %v", err)
	}
	r := mustQuery(t, db, `From person Retrieve name Where name = "Imposter".`)
	if r.NumRows() != 0 {
		t.Error("failed insert left a partial entity")
	}
}

func TestRequiredEnforcedOnInsert(t *testing.T) {
	db := universityDB(t, Config{})
	_, err := db.Exec(`Insert course (title := "No Number", credits := 5).`)
	if err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("missing required course-no accepted: %v", err)
	}
	_, err = db.Exec(`Insert instructor (name := "No Emp", soc-sec-no := 900000100).`)
	if err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("missing required employee-nbr accepted: %v", err)
	}
	_, err = db.Exec(`Modify course (course-no := null) Where title = "Databases".`)
	if err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("nulling a required attribute accepted: %v", err)
	}
}

func TestTypeRangeEnforced(t *testing.T) {
	db := universityDB(t, Config{})
	// credits: integer (1..15).
	if _, err := db.Exec(`Modify course (credits := 20) Where title = "Databases".`); err == nil {
		t.Error("credits=20 accepted outside 1..15")
	}
	// id-number ranges for employee-nbr.
	if _, err := db.Exec(`Modify instructor (employee-nbr := 40000) Where name = "Bob Stone".`); err == nil {
		t.Error("employee-nbr=40000 accepted outside id-number ranges")
	}
	// string[30] length.
	if _, err := db.Exec(`Modify course (title := "This title is far too long to fit in thirty characters") Where course-no = 301.`); err == nil {
		t.Error("over-long title accepted")
	}
}

func TestEVACardinalityMaxEnforced(t *testing.T) {
	db := universityDB(t, Config{})
	// courses-taught has MAX 3; Joe teaches 2.
	mustExec(t, db, `Modify instructor (courses-taught := include course with (title = "Databases")) Where name = "Joe Bloke".`)
	_, err := db.Exec(`Modify instructor (courses-taught := include course with (title = "Algebra I")) Where name = "Joe Bloke".`)
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("4th course accepted beyond MAX 3: %v", err)
	}
	if v := singleValue(t, db, `From instructor Retrieve count(courses-taught) Where name = "Joe Bloke".`); v.String() != "3" {
		t.Errorf("courses-taught after failed include = %s", v)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "univ.sim")
	db, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(universityDDLForReopen); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`Insert item (label := "persists", qty := 7).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// The schema was loaded from the file.
	if db2.Catalog().Class("item") == nil {
		t.Fatal("schema not persisted")
	}
	r := mustQuery(t, db2, `From item Retrieve label, qty.`)
	expectRows(t, r, [][]string{{"persists", "7"}})
	// And it remains writable.
	mustExec(t, db2, `Insert item (label := "second", qty := 9).`)
}

const universityDDLForReopen = `
Class Item (
  label: string[20] required;
  qty: integer );`

func TestSchemaExtensionAcrossBatches(t *testing.T) {
	db := universityDB(t, Config{})
	err := db.DefineSchema(`
Class Building ( bname: string[20] required unique;
  home-of: department inverse is housed-in mv );`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert building (bname := "Old Hall", home-of := department with (name = "Math")).`)
	r := mustQuery(t, db, `From department Retrieve bname of housed-in Where name = "Math".`)
	expectRows(t, r, [][]string{{"Old Hall"}})
	// A bad batch is rejected wholesale without corrupting the catalog.
	if err := db.DefineSchema(`Class Broken ( x: missing-type );`); err == nil {
		t.Fatal("bad schema batch accepted")
	}
	if db.Catalog().Class("building") == nil || db.Catalog().Class("broken") != nil {
		t.Error("catalog corrupted by failed batch")
	}
	mustExec(t, db, `Insert building (bname := "New Hall").`)
}

func TestSchemaSummary(t *testing.T) {
	db := universityDB(t, Config{})
	s := db.SchemaSummary()
	for _, want := range []string{"base classes: 3", "subclasses: 3", "EVA-inverse pairs: 8", "max generalization depth: 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRunScript(t *testing.T) {
	db := universityDB(t, Config{})
	results, err := db.Run(`
Insert department (dept-nbr := 400, name := "History").
From department Retrieve name Where dept-nbr = 400.
Delete department Where dept-nbr = 400.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] != nil || results[2] != nil {
		t.Fatalf("results = %v", results)
	}
	expectRows(t, results[1], [][]string{{"History"}})

	// A script Retrieve runs the same compiled program Query does: byte-
	// identical output, and the same error (under the statement prefix).
	for _, q := range []string{
		`From student Retrieve name, count(courses-enrolled) Order By name.`,
		`Retrieve Structure Name, Title of Courses-Enrolled of Student Where Student-Nbr = 1501.`,
		`Retrieve Structure Name, Title of Courses-Enrolled of Student Order By Name.`,
	} {
		want, wantErr := db.Query(q)
		got, err := db.Run(q)
		if wantErr != nil {
			if err == nil || err.Error() != "statement 1: "+wantErr.Error() {
				t.Errorf("Run(%q) error %v, want statement 1: %v", q, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
		if got[0].Format() != want.Format() || got[0].FormatStructured() != want.FormatStructured() {
			t.Errorf("Run(%q):\n%s\nQuery:\n%s", q, got[0].FormatStructured(), want.FormatStructured())
		}
	}
}

// TestRunCountsEveryStatement: a script's statements go through the
// single-statement doors, so each statement is one plan-cache lookup, each
// Retrieve one query-latency sample and one slow-log candidate, and each
// update one update-latency sample.
func TestRunCountsEveryStatement(t *testing.T) {
	db := universityDB(t, Config{SlowQuery: time.Nanosecond})
	before, reg := db.Stats().Plans, db.Metrics()
	queries, updates := reg.Get("sim_query_seconds"), reg.Get("sim_update_seconds")
	slow := len(db.SlowQueries())
	if _, err := db.Run(`
From department Retrieve name Where dept-nbr = 100.
Insert department (dept-nbr := 401, name := "Classics").
From department Retrieve name Where dept-nbr = 401.`); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Plans
	if n := after.Hits + after.Misses - before.Hits - before.Misses; n != 3 {
		t.Errorf("plan-cache lookups rose by %d, want 3", n)
	}
	if n := reg.Get("sim_query_seconds") - queries; n != 2 {
		t.Errorf("sim_query_seconds_count rose by %v, want 2", n)
	}
	if n := reg.Get("sim_update_seconds") - updates; n != 1 {
		t.Errorf("sim_update_seconds_count rose by %v, want 1", n)
	}
	if n := len(db.SlowQueries()) - slow; n != 2 {
		t.Errorf("slow-query log grew by %d, want 2", n)
	}
}

// TestFailedUpdatesCount: every update door observes sim_update_seconds
// and counts a failure in sim_update_errors_total, whether the statement
// fails to parse or fails to execute.
func TestFailedUpdatesCount(t *testing.T) {
	db := universityDB(t, Config{})
	reg := db.Metrics()
	const malformed = `Insert department (dept-nbr := ).`
	const unknown = `Insert nosuchclass (name := "x").`
	inTx := func(dml string) error {
		tx, err := db.Begin(context.Background())
		if err != nil {
			return err
		}
		defer tx.Rollback()
		_, err = tx.Exec(context.Background(), dml)
		return err
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Exec/parse", func() error { _, err := db.Exec(malformed); return err }},
		{"Exec/exec", func() error { _, err := db.Exec(unknown); return err }},
		{"Tx.Exec/parse", func() error { return inTx(malformed) }},
		{"Tx.Exec/exec", func() error { return inTx(unknown) }},
		{"Run/exec", func() error { _, err := db.Run(unknown); return err }},
	} {
		updates, errs := reg.Get("sim_update_seconds"), reg.Get("sim_update_errors_total")
		if err := c.run(); err == nil {
			t.Fatalf("%s: the bad update succeeded", c.name)
		}
		if n := reg.Get("sim_update_seconds") - updates; n != 1 {
			t.Errorf("%s: sim_update_seconds_count rose by %v, want 1", c.name, n)
		}
		if n := reg.Get("sim_update_errors_total") - errs; n != 1 {
			t.Errorf("%s: sim_update_errors_total rose by %v, want 1", c.name, n)
		}
	}
}
