package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sim/internal/luc"
	"sim/internal/university"
)

// populated builds a university database with n students enrolled across
// courses, suitable for optimizer tests. Indexes are configured on
// person.name and course.title.
func populated(t testing.TB, n int, mapping luc.Config) *Database {
	t.Helper()
	if mapping.Indexes == nil {
		mapping.Indexes = []string{"person.name", "course.title"}
	}
	db := universityDB(t, Config{Mapping: mapping})
	for i := 0; i < n; i++ {
		// Every 10th student is advised by Bob (advisees has MAX 10, so
		// bulk students mostly go unadvised).
		advisor := ""
		if i%10 == 0 {
			advisor = `advisor := instructor with (name = "Bob Stone"),`
		}
		stmt := fmt.Sprintf(`Insert student (name := "Bulk Student %04d", soc-sec-no := %d, %s
		  courses-enrolled := course with (title = "Algebra I")).`, i, 500000000+i, advisor)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("bulk insert %d: %v", i, err)
		}
	}
	return db
}

func TestExplainUniqueLookup(t *testing.T) {
	db := universityDB(t, Config{})
	ex, err := db.Explain(`From person Retrieve name Where soc-sec-no = 456887766.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "unique lookup") {
		t.Errorf("explain = %q, want unique lookup", ex)
	}
}

func TestExplainScanWithoutIndex(t *testing.T) {
	db := universityDB(t, Config{})
	ex, err := db.Explain(`From person Retrieve name Where birthdate > "1970-01-01".`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "scan person") {
		t.Errorf("explain = %q, want scan", ex)
	}
}

func TestExplainIndexRange(t *testing.T) {
	db := populated(t, 60, luc.Config{})
	ex, err := db.Explain(`From person Retrieve soc-sec-no Where name = "Bulk Student 0001".`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "index range on name") {
		t.Errorf("explain = %q, want index range", ex)
	}
}

func TestExplainPivot(t *testing.T) {
	db := populated(t, 80, luc.Config{})
	// Selective predicate on a related class: the optimizer should pivot
	// through the inverse EVA rather than scanning every student.
	ex, err := db.Explain(`From student Retrieve soc-sec-no Where name of advisor = "Bob Stone".`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "pivot") {
		t.Errorf("explain = %q, want pivot strategy", ex)
	}
}

// Pivoted execution must agree with forced scans, including row order
// (perspective-surrogate order is restored by the pivot's sort).
func TestPivotMatchesScan(t *testing.T) {
	q := `From student Retrieve name, soc-sec-no Where name of advisor = "Bob Stone".`
	withIdx := populated(t, 80, luc.Config{})
	noIdx := populated(t, 80, luc.Config{Indexes: []string{}})

	exIdx, _ := withIdx.Explain(q)
	exNo, _ := noIdx.Explain(q)
	if !strings.Contains(exIdx, "pivot") || !strings.Contains(exNo, "scan") {
		t.Fatalf("strategies not as expected: %q vs %q", exIdx, exNo)
	}
	a := mustQuery(t, withIdx, q)
	b := mustQuery(t, noIdx, q)
	expectRows(t, a, rowStrings(b))
	if a.NumRows() != 8 {
		t.Errorf("rows = %d, want 8", a.NumRows())
	}
}

func TestIndexRangeMatchesScan(t *testing.T) {
	q := `From course Retrieve title, credits Where title >= "C" and title < "N" Order By title.`
	withIdx := populated(t, 5, luc.Config{})
	noIdx := populated(t, 5, luc.Config{Indexes: []string{}})
	a := mustQuery(t, withIdx, q)
	b := mustQuery(t, noIdx, q)
	expectRows(t, a, rowStrings(b))
	expectRows(t, a, [][]string{{"Calculus I", "5"}, {"Databases", "5"}, {"Mechanics", "5"}})
}

// The same integration queries produce identical answers under every
// physical mapping of §5.2 — mapping is invisible to semantics.
func TestMappingVariantsAgree(t *testing.T) {
	variants := map[string]luc.Config{
		"default": {},
		"split-hierarchies": {Hierarchy: map[string]luc.HierarchyStrategy{
			"person": luc.HierarchySplit, "course": luc.HierarchySplit, "department": luc.HierarchySplit}},
		"fk-advisor": {EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVAForeignKey}},
		"all-common": {EVA: map[string]luc.EVAStrategy{
			"student.advisor":          luc.EVACommon,
			"person.spouse":            luc.EVACommon,
			"student.courses-enrolled": luc.EVACommon,
		}},
		"private-evas": {EVA: map[string]luc.EVAStrategy{
			"student.courses-enrolled": luc.EVAPrivate,
			"course.prerequisites":     luc.EVAPrivate,
		}},
	}
	queries := []string{
		`From Student Retrieve Name, Name of Advisor.`,
		`Retrieve name of instructor, title of courses-taught Where name of major-department of advisees = "Physics".`,
		`From course Retrieve count distinct (transitive(prerequisites)) Where title = "Quantum Chromodynamics".`,
		`From Department Retrieve Name, AVG(Salary of Instructors-employed) Order By Name.`,
		`From Person Retrieve Profession Where Name = "Tina Aide".`,
	}
	var want [][][]string
	for name, cfg := range variants {
		db := universityDB(t, Config{Mapping: cfg})
		for qi, q := range queries {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", name, qi, err)
			}
			got := rowStrings(r)
			if want == nil || len(want) <= qi {
				want = append(want, got)
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want[qi]) {
				t.Errorf("%s: query %d differs:\n got %v\nwant %v", name, qi, got, want[qi])
			}
		}
	}
}

func TestStatsVisible(t *testing.T) {
	db := populated(t, 30, luc.Config{})
	db.ResetStats()
	mustQuery(t, db, `From student Retrieve name.`)
	st := db.Stats()
	if st.Pool.Hits == 0 {
		t.Error("no buffer pool activity recorded")
	}
}

// TestRolledBackBucketMoveIsNotRemembered: a plan costed on a
// transaction's live pages saw statistics that a rollback takes back, and
// later commits may bring the committed statistics version to the same
// number with the classes in other buckets. Such a plan remembers no
// version, so the shape is re-planned for the committed sizes.
func TestRolledBackBucketMoveIsNotRemembered(t *testing.T) {
	ctx := context.Background()
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) string {
		return fmt.Sprintf(`Insert student (name := "Student %05d", soc-sec-no := %d).`, i, 200000000+i)
	}
	const q = `From student Retrieve name Where soc-sec-no = 200000000.`
	mustExec := func(dml string) {
		t.Helper()
		if _, err := db.Exec(dml); err != nil {
			t.Fatal(err)
		}
	}
	version := func() uint64 {
		t.Helper()
		v, _ := db.store.StatsVersion()
		return v
	}
	mustExec(insert(0))
	if _, err := db.Query(q); err != nil { // cached on a read view: a scan
		t.Fatal(err)
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3000; i++ {
		if _, err := tx.Exec(ctx, insert(i)); err != nil {
			t.Fatal(err)
		}
	}
	// On the transaction's live pages student has left its bucket: the
	// shape is re-planned there, as a unique lookup, and cached.
	if r, err := tx.Query(ctx, q); err != nil || r.NumRows() != 1 {
		t.Fatalf("the shape in the transaction: %v (err %v)", r, err)
	}
	rolledBack := version()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Commits that move student between its two lowest buckets bring the
	// committed version to the rolled-back number.
	for i := 1; version() < rolledBack; i++ {
		if i%2 == 1 {
			mustExec(insert(i))
		} else {
			mustExec(fmt.Sprintf(`Delete student Where soc-sec-no = %d.`, 200000000+i-1))
		}
	}
	if v := version(); v != rolledBack {
		t.Fatalf("committed statistics version %d passed the rolled-back %d; the test lost its precondition", v, rolledBack)
	}
	fresh, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh, "scan student") {
		t.Fatalf("on at most two students the shape is planned as a scan; got\n%s", fresh)
	}
	_, tr, err := db.QueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PlanDesc != fresh {
		t.Fatalf("the shape ran the plan costed on the rolled-back sizes:\n%s\nwant\n%s", tr.PlanDesc, fresh)
	}
}

// TestAutocommitShapeRemembersVersion: an autocommit update is costed
// under the write latch, on live pages that hold no uncommitted raise of
// the statistics version, so its entry remembers that committed version
// and later hits read no class count.
func TestAutocommitShapeRemembersVersion(t *testing.T) {
	db := populated(t, 20, luc.Config{})
	for i := range 3 {
		dml := fmt.Sprintf(`Modify student (name := "Renamed %d") Where soc-sec-no = %d.`, i, 500000000+i)
		if n, err := db.Exec(dml); err != nil || n != 1 {
			t.Fatalf("%s: %d, %v", dml, n, err)
		}
	}
	g := db.gen.Load()
	g.plans.mu.RLock()
	defer g.plans.mu.RUnlock()
	var updates int
	for key, en := range g.plans.m {
		if en.upd == nil || len(en.cards) == 0 {
			continue
		}
		updates++
		if en.known.Load() == 0 {
			t.Errorf("update shape %q remembers no statistics version, so every hit reads its classes' counts", key)
		}
	}
	if updates == 0 {
		t.Fatal("no update shape with class sizes is cached; the test lost its precondition")
	}
}
