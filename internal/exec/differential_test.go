package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/integrity"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/university"
	"sim/internal/value"
)

// The differential suite: every evaluation the engine performs — Retrieve,
// update selections, entity filters, assignment right-hand sides and
// VERIFY assertions — runs once compiled and once on the tree-walking
// oracle (walker_test.go), and the two must agree byte for byte, or on
// error text.

// extraVerifies are assertions beyond the schema's v1/v2 with existential
// variables: v3's single-valued path is Unknown for an advisor with a NULL
// bonus and has no binding for a student without an advisor (both pass);
// v4's multi-valued path is definitely False for an instructor none of
// whose courses carries 12 credits. Only TestDifferentialVerify installs
// them: the fixture violates v4.
const extraVerifies = `
Verify v3 on Student assert bonus of advisor > 500 else "advisor bonus too small";
Verify v4 on Instructor assert credits of courses-taught >= 12 else "no full course";
`

// univ is one in-memory UNIVERSITY database driven at the executor level.
type univ struct {
	t     *testing.T
	store *dmsii.Store
	cat   *catalog.Catalog
	m     *luc.Mapper
	e     *Executor
}

// newUniv loads the schema and the shared fixture, plus extra bulk
// students (a 64-student grown domain when extra is 64), and installs the
// schema's VERIFY assertions.
func newUniv(t *testing.T, extra int) *univ {
	return newUnivMapped(t, extra, luc.Config{})
}

// newUnivMapped is newUniv under a physical mapping other than the
// default.
func newUnivMapped(t *testing.T, extra int, mapping luc.Config) *univ {
	t.Helper()
	store, err := dmsii.OpenMemory(dmsii.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	u := &univ{t: t, store: store, cat: catalog.New()}
	u.extend(university.DDL)
	if u.m, err = luc.New(store, u.cat, mapping); err != nil {
		t.Fatal(err)
	}
	u.e = New(u.m)
	u.e.SetMetrics(obs.NewRegistry())
	for _, dml := range university.Fixture {
		u.commit(dml)
	}
	for i := 0; i < extra; i++ {
		u.commit(fmt.Sprintf(`Insert student (name := "Bulk %03d", soc-sec-no := %d,
		   student-nbr := %d, major-department := department with (name = "CS")).`,
			i, 500000000+i, 2000+i))
	}
	// The assertions go in once the data is loaded, so the fixture's
	// statements exercise the executor without depending on VERIFY.
	u.installVerifies()
	return u
}

func (u *univ) extend(ddl string) {
	sch, err := parser.ParseSchema(ddl)
	if err != nil {
		u.t.Fatal(err)
	}
	if err := u.cat.Extend(sch); err != nil {
		u.t.Fatal(err)
	}
}

// installVerifies compiles and installs every VERIFY of the schema.
func (u *univ) installVerifies() {
	cs, err := integrity.Analyze(u.cat)
	if err != nil {
		u.t.Fatal(err)
	}
	if err := u.e.SetConstraints(cs); err != nil {
		u.t.Fatal(err)
	}
}

// inTx runs fn inside a store transaction and rolls it back.
func (u *univ) inTx(fn func()) {
	u.t.Helper()
	tx, err := u.store.Begin()
	if err != nil {
		u.t.Fatal(err)
	}
	defer func() {
		if err := tx.Rollback(); err != nil {
			u.t.Fatal(err)
		}
		u.m.ResetLiveState()
	}()
	fn()
}

// exec runs one update statement on the executor (the caller holds a
// transaction).
func (u *univ) exec(dml string) (int, error) {
	stmt, err := parser.ParseStmt(dml)
	if err != nil {
		u.t.Fatal(err)
	}
	ctx := context.Background()
	switch s := stmt.(type) {
	case *ast.InsertStmt:
		return u.e.Insert(ctx, s)
	case *ast.ModifyStmt:
		return u.e.Modify(ctx, s)
	case *ast.DeleteStmt:
		return u.e.Delete(ctx, s)
	}
	u.t.Fatalf("not an update: %q", dml)
	return 0, nil
}

func (u *univ) commit(dml string) {
	u.t.Helper()
	tx, err := u.store.Begin()
	if err != nil {
		u.t.Fatal(err)
	}
	if _, err := u.exec(dml); err != nil {
		u.t.Fatalf("%q: %v", dml, err)
	}
	if err := tx.Commit(); err != nil {
		u.t.Fatal(err)
	}
}

func (u *univ) class(name string) *catalog.Class {
	cl := u.cat.Class(name)
	if cl == nil {
		u.t.Fatalf("no class %q", name)
	}
	return cl
}

func (u *univ) all(cl *catalog.Class) []value.Surrogate {
	ss, err := u.m.Surrogates(cl)
	if err != nil {
		u.t.Fatal(err)
	}
	return ss
}

// sameErr reports whether two evaluations agree on failure: both nil, or
// both non-nil with the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// compile parses, binds, plans and compiles one Retrieve.
func (u *univ) compile(q string) (*plan.Plan, *Program) {
	t := u.t
	t.Helper()
	stmt, err := parser.ParseStmt(q)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := query.Bind(u.cat, stmt.(*ast.RetrieveStmt))
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	p, err := plan.Optimize(tree, u.m)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := u.e.Compile(p)
	if err != nil {
		t.Fatalf("%q: compile: %v", q, err)
	}
	return p, prog
}

// retrieve runs one Retrieve compiled and on the oracle, reports any
// disagreement, and returns the compiled result's structured rendering
// (the error text when both fail alike).
func (u *univ) retrieve(q string) string {
	t := u.t
	t.Helper()
	p, prog := u.compile(q)
	got, gotErr := u.e.RetrieveProgram(context.Background(), p, prog, nil)
	want, wantErr := u.e.retrieveTree(p)
	if !sameErr(gotErr, wantErr) {
		t.Errorf("%q: compiled err %v, oracle err %v", q, gotErr, wantErr)
		return ""
	}
	if wantErr != nil {
		return wantErr.Error()
	}
	if got.Format() != want.Format() || got.FormatStructured() != want.FormatStructured() {
		t.Errorf("%q:\ncompiled:\n%s\noracle:\n%s", q, got.FormatStructured(), want.FormatStructured())
	}
	if got.Stats != want.Stats {
		t.Errorf("%q: compiled stats %+v, oracle %+v", q, got.Stats, want.Stats)
	}
	return got.FormatStructured()
}

// checkDomFree inspects every scratch the executor's pool hands out and
// fails if a free domain buffer holds a non-zero instance anywhere up to
// its capacity: putDomBuf clears only the used prefix, so everything past
// len must already be zero or pooled buffers would pin decoded records.
// It returns how many buffers it inspected; the scratches go back to the
// pool.
func checkDomFree(t *testing.T, e *Executor, q string) int {
	t.Helper()
	var held []*scratch
	n := 0
	for {
		sc, _ := e.scratchPool.Get().(*scratch)
		if sc == nil {
			break
		}
		held = append(held, sc)
		for _, b := range sc.domFree {
			for i, it := range b[:cap(b)] {
				if it != (inst{}) {
					t.Errorf("%q: free domain buffer (len %d, cap %d) holds %+v at %d", q, len(b), cap(b), it, i)
					break
				}
			}
			n++
		}
	}
	for _, sc := range held {
		e.scratchPool.Put(sc)
	}
	return n
}

// roleProbes are unique-index probes whose hit may lack the perspective's
// role: appendWithRole filters the domain in place and must zero what it
// drops.
var roleProbes = []string{
	`From instructor Retrieve name Where soc-sec-no = 456887766.`,
	`From student Retrieve name Where soc-sec-no = 456887766.`,
}

// outputModes cover every output mode on the Student extent: plain
// TABLE, ORDER BY on a key and on a non-key, TABLE DISTINCT over an EVA,
// an aggregate per row, and STRUCTURE grouping.
var outputModes = []string{
	`From Student Retrieve Name, Student-Nbr.`,
	`From Student Retrieve Name, Student-Nbr Order By Student-Nbr.`,
	`From Student Retrieve Table Distinct Name of Major-Department.`,
	`From Student Retrieve Name, Name of Advisor Order By Name.`,
	`From Instructor Retrieve Name, count(Advisees) Order By Name.`,
	`From Student Retrieve Structure Name, Title of Courses-Enrolled.`,
}

// TestDifferentialRetrieve: the tri-logic query set, the output modes and
// the role probes, compiled against the oracle on the fixture and on a
// 64-student grown domain. After every program the pooled domain buffers
// must be zero through capacity.
func TestDifferentialRetrieve(t *testing.T) {
	for _, extra := range []int{0, 64} {
		t.Run(fmt.Sprintf("extra=%d", extra), func(t *testing.T) {
			u := newUniv(t, extra)
			inspected := 0
			for _, q := range slices.Concat(university.TriLogicQueries, outputModes, roleProbes) {
				u.retrieve(q)
				inspected += checkDomFree(t, u.e, q)
			}
			if inspected == 0 {
				t.Error("no pooled domain buffer was inspected")
			}
		})
	}
}

// TestRetrieveCancelled: a cancelled context stops a Retrieve between
// outermost bindings with the context's error, and the scratch goes back
// with every domain buffer zeroed (checked when the pool keeps it: -race
// makes sync.Pool drop puts at random).
func TestRetrieveCancelled(t *testing.T) {
	u := newUniv(t, 64)
	q := `From student Retrieve name, title of courses-enrolled.`
	p, prog := u.compile(q)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := u.e.RetrieveProgram(ctx, p, prog, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Retrieve: err %v, want context.Canceled", err)
	}
	checkDomFree(t, u.e, q)
}

// fullScans are perspective scans with no usable index: their root domain
// decodes each record from the scan cursor's cell. They cover a base class,
// subclasses whose scan filters on the role list (one with two parents),
// attributes from several role sections of one record, a subrole read off
// the scanned record, EVA walks from scanned records, and a second
// hierarchy.
var fullScans = []string{
	`From person Retrieve name, soc-sec-no, birthdate, profession.`,
	`From student Retrieve name, name of advisor.`,
	`From instructor Retrieve name, salary, bonus, employee-nbr, count(advisees).`,
	`From teaching-assistant Retrieve name, teaching-load, student-nbr, employee-nbr, salary.`,
	`From student Retrieve name, title of courses-enrolled Where student-nbr >= 1502 or name of advisor = "Ann Smith".`,
	`From course Retrieve title, credits, count(students-enrolled).`,
}

// TestDifferentialFullScans: full scans compiled against the oracle on the
// fixture and on a 64-student grown domain, under the single-record
// mapping (records decoded from the cursor) and the split mapping (no
// record: per-entity reads); both mappings must return the same rows.
func TestDifferentialFullScans(t *testing.T) {
	split := luc.Config{Hierarchy: map[string]luc.HierarchyStrategy{"person": luc.HierarchySplit}}
	for _, extra := range []int{0, 64} {
		t.Run(fmt.Sprintf("extra=%d", extra), func(t *testing.T) {
			single := newUniv(t, extra)
			splitU := newUnivMapped(t, extra, split)
			for _, q := range fullScans {
				a, b := single.retrieve(q), splitU.retrieve(q)
				if a != b {
					t.Errorf("%q: single-record mapping\n%s\nsplit mapping\n%s", q, a, b)
				}
				checkDomFree(t, single.e, q)
				checkDomFree(t, splitU.e, q)
			}
		})
	}
}

// updateSelections are update statements whose WHERE clauses are
// existential, quantified or Unknown-valued for some entities.
var updateSelections = []string{
	`Modify instructor (bonus := bonus).`,
	`Modify instructor (bonus := bonus) Where bonus > 500.`,
	`Modify instructor (bonus := bonus) Where not (bonus > 500).`,
	`Modify instructor (bonus := bonus) Where salary + bonus > 0 or salary < 50000.`,
	`Modify instructor (bonus := bonus) Where some(advisees).`,
	`Modify instructor (bonus := bonus) Where no(advisees).`,
	`Modify instructor (bonus := bonus) Where credits of courses-taught > 10.`,
	`Modify student (name := name) Where name of advisor = "Joe Bloke".`,
	`Modify student (name := name) Where title of courses-enrolled = "Calculus I".`,
	`Modify student (name := name) Where bonus of advisor > 500.`,
	`Modify student (name := name) Where major-department = all(assigned-department of advisor).`,
	`Modify student (name := name) Where major-department = no(assigned-department of advisor).`,
	`Delete student Where count(courses-enrolled) = 0.`,
	`Delete student Where name of advisor <> "Joe Bloke".`,
	`Delete course Where credits of prerequisites = some(credits of prerequisite-of).`,
	`Insert teaching-assistant From student Where name of major-department = "CS" and bonus of advisor > 0 (teaching-load := 3, employee-nbr := 1801).`,
	`Insert instructor From person Where soc-sec-no = 456887769 (employee-nbr := 1800).`,
}

// TestDifferentialUpdateSelections: update selections and entity filters
// (EXCLUDE's path) compiled against the oracle; each statement then runs
// and must touch exactly the entities selected.
func TestDifferentialUpdateSelections(t *testing.T) {
	u := newUniv(t, 0)
	ctx := context.Background()
	for _, dml := range updateSelections {
		stmt, err := parser.ParseStmt(dml)
		if err != nil {
			t.Fatal(err)
		}
		var cl *catalog.Class
		var where ast.Expr
		switch s := stmt.(type) {
		case *ast.ModifyStmt:
			cl, where = u.class(s.Class), s.Where
		case *ast.DeleteStmt:
			cl, where = u.class(s.Class), s.Where
		case *ast.InsertStmt:
			cl, where = u.class(s.FromClass), s.FromWhere
		}
		got, gotErr := u.e.SelectEntities(ctx, cl, where)
		want, wantErr := u.e.oracleSelect(cl, where)
		if !sameErr(gotErr, wantErr) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: selection compiled %v (err %v), oracle %v (err %v)", dml, got, gotErr, want, wantErr)
			continue
		}
		all := u.all(cl)
		gotF, gotErr := u.e.filterEntities(ctx, cl, all, where)
		wantF, wantErr := u.e.oracleFilter(cl, all, where)
		if !sameErr(gotErr, wantErr) || fmt.Sprint(gotF) != fmt.Sprint(wantF) {
			t.Errorf("%q: filter compiled %v (err %v), oracle %v (err %v)", dml, gotF, gotErr, wantF, wantErr)
		}
		if where != nil && len(want) == len(all) {
			t.Errorf("%q: selects every %s; the case exercises nothing", dml, cl.Name)
		}
		u.inTx(func() {
			n, err := u.exec(dml)
			if err != nil {
				t.Errorf("%q: %v", dml, err)
			} else if n != len(want) {
				t.Errorf("%q: touched %d entities, selected %d", dml, n, len(want))
			}
		})
	}
}

// TestDifferentialAssignments: assignment right-hand sides for every
// entity of their class, compiled against the oracle, including both
// multi-valued-path errors; then the Modify itself stores what the oracle
// computed.
func TestDifferentialAssignments(t *testing.T) {
	u := newUniv(t, 0)
	cases := []struct {
		class, rhs, err string
	}{
		{"instructor", `1.1 * salary`, ""},
		{"instructor", `salary + bonus`, ""},
		{"student", `name of advisor`, ""},
		{"student", `salary of advisor + 1`, ""},
		{"student", `dept-nbr of major-department`, ""},
		{"student", `count(courses-enrolled)`, ""},
		{"student", `title of courses-enrolled`, "assignment expression traverses multi-valued"},
		{"person", `profession`, "assignment expression reads multi-valued"},
	}
	for _, tc := range cases {
		stmt, err := parser.ParseStmt(fmt.Sprintf(`Modify %s (name := %s).`, tc.class, tc.rhs))
		if err != nil {
			t.Fatal(err)
		}
		expr := stmt.(*ast.ModifyStmt).Assigns[0].Value
		cl := u.class(tc.class)
		for _, s := range u.all(cl) {
			got, gotErr := u.e.evalScalarFor(s, cl, expr)
			want, wantErr := u.e.oracleScalar(s, cl, expr)
			if !sameErr(gotErr, wantErr) || got.Key() != want.Key() {
				t.Errorf("%s #%d %q: compiled %v (err %v), oracle %v (err %v)", tc.class, s, tc.rhs, got, gotErr, want, wantErr)
			}
			if tc.err != "" && (gotErr == nil || !strings.Contains(gotErr.Error(), tc.err)) {
				t.Errorf("%s %q: err %v, want %q", tc.class, tc.rhs, gotErr, tc.err)
			}
		}
	}

	// The Modify stores what the oracle evaluated beforehand.
	cl := u.class("instructor")
	salary := catalog.ResolveAttr(cl, "salary")
	stmt, _ := parser.ParseStmt(`Modify instructor (salary := 1.1 * salary).`)
	expr := stmt.(*ast.ModifyStmt).Assigns[0].Value
	want := map[value.Surrogate]value.Value{}
	for _, s := range u.all(cl) {
		v, err := u.e.oracleScalar(s, cl, expr)
		if err != nil {
			t.Fatal(err)
		}
		if want[s], err = salary.Type.Coerce(v); err != nil {
			t.Fatal(err)
		}
	}
	u.inTx(func() {
		if _, err := u.exec(`Modify instructor (salary := 1.1 * salary).`); err != nil {
			t.Fatal(err)
		}
		for s, w := range want {
			got, err := u.m.GetSingle(s, salary)
			if err != nil || got.Key() != w.Key() {
				t.Errorf("instructor #%d: salary %v (err %v), oracle %v", s, got, err, w)
			}
		}
	})
}

// TestDifferentialVerify: every installed assertion on every entity of
// its class, compiled against the oracle — in the fixture state, where
// v3's Unknown must pass, and in states that violate v2, v3 and v4.
func TestDifferentialVerify(t *testing.T) {
	u := newUniv(t, 0)
	u.extend(extraVerifies)
	u.installVerifies()
	compare := func(state string) map[string]int {
		violations := map[string]int{}
		for _, ck := range u.e.checks {
			for _, s := range u.all(ck.c.Verify.Class) {
				got := u.e.checkEntity(ck, s)
				want := u.e.oracleCheck(ck.c, s)
				if !sameErr(got, want) {
					t.Errorf("%s: %s on #%d: compiled %v, oracle %v", state, ck.c.Verify.Name, s, got, want)
				}
				if got != nil {
					violations[ck.c.Verify.Name]++
				}
			}
		}
		return violations
	}
	// Fixture: v4 fails for the instructors teaching no 12-credit course
	// (Joe Bloke, Bob Stone, Tina Aide); v3 is Unknown for Ann Smith's
	// advisees and has no binding for NoAdv Kid, and passes.
	if got := compare("fixture"); fmt.Sprint(got) != "map[v4:3]" {
		t.Errorf("fixture violations %v, want map[v4:3]", got)
	}
	u.inTx(func() {
		u.exec(`Modify instructor (bonus := 60000) Where name = "Joe Bloke".`)
		u.exec(`Modify instructor (bonus := 100) Where name = "Ann Smith".`)
		// v2: Joe now makes too much; v3: Ann's two advisees now see a
		// definite False instead of Unknown.
		if got := compare("mutated"); fmt.Sprint(got) != "map[v2:1 v3:2 v4:3]" {
			t.Errorf("mutated violations %v, want map[v2:1 v3:2 v4:3]", got)
		}
	})
}
