package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sim"
	"sim/client"
	"sim/internal/luc"
	"sim/internal/server"
	"sim/internal/university"
	"sim/internal/wire"
)

// The plan cache keys plans by statement shape and runs them with the
// executing statement's literals as parameters. These tests hold that
// against a database with the cache disabled, which parses, binds,
// optimizes and compiles every statement for its own literals.

var shapeWorkload = university.Workload{Departments: 6, Instructors: 40, Students: 400, Courses: 60, EnrollPer: 3, AdvisePer: 8}

// shapeDB builds the shared population with the benchmark's two secondary
// indexes (so name and title predicates cost index probes, as there) and a
// prerequisite chain for the closure template.
func shapeDB(t testing.TB, cfg sim.Config) *sim.Database {
	t.Helper()
	cfg.Mapping = luc.Config{Indexes: []string{"person.name", "course.title"}}
	db := openUniversity(t, cfg, shapeWorkload)
	for c := 2; c <= 12; c++ {
		stmt := fmt.Sprintf(`Modify course (prerequisites := include course with (course-no = %d)) Where course-no = %d.`, c-1, c)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

// shapeTemplates are the benchmark's three point-read texts and seven
// analytic templates, each with a generator of literal vectors: mostly
// values that exist, some that do not.
var shapeTemplates = []struct {
	name string
	text func(r *rand.Rand) string
}{
	{"unique", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve name, student-nbr Where soc-sec-no = %d.`, 200000000+r.Intn(450))
	}},
	{"eva", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve name of advisor, name of major-department Where soc-sec-no = %d.`, 200000000+r.Intn(450))
	}},
	{"name", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve soc-sec-no Where name = "Student %05d".`, r.Intn(450))
	}},
	{"q-scan", func(*rand.Rand) string { return `From student Retrieve name, name of advisor.` }},
	{"q-advisor-join", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve name, name of advisor Where dept-nbr of major-department = %d.`, 100+r.Intn(8))
	}},
	{"q-count-advisees", func(r *rand.Rand) string {
		return fmt.Sprintf(`From instructor Retrieve name, count(advisees) Where dept-nbr of assigned-department = %d.`, 100+r.Intn(8))
	}},
	{"q-pivot-title", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve name Where title of courses-enrolled = "Course %04d".`, r.Intn(70))
	}},
	{"q-title-range", func(r *rand.Rand) string {
		lo := r.Intn(60)
		return fmt.Sprintf(`From course Retrieve title, credits Where title >= "Course %04d" and title < "Course %04d".`, lo, lo+r.Intn(12))
	}},
	{"q-credits-agg", func(r *rand.Rand) string {
		return fmt.Sprintf(`From student Retrieve name, min(credits of courses-enrolled), sum(credits of courses-enrolled) Where dept-nbr of major-department = %d.`, 100+r.Intn(8))
	}},
	{"q-prereq-closure", func(r *rand.Rand) string {
		return fmt.Sprintf(`From course Retrieve title, count distinct (transitive(prerequisites)) Where course-no = %d.`, 1+r.Intn(70))
	}},
}

type queryFn func(dml string) (*sim.Result, error)

// sameResult compares one statement's outcome on two paths: equal errors,
// or byte-identical encoded results (columns, rows, instance and row
// counts, structure).
func sameResult(t *testing.T, path, dml string, got, want queryFn) {
	t.Helper()
	g, gerr := got(dml)
	w, werr := want(dml)
	if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: %s\n  error %v\n  cold  %v", path, dml, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !bytes.Equal(wire.EncodeResult(g), wire.EncodeResult(w)) {
		t.Fatalf("%s: %s\n  warm cache:\n%s\n  cache disabled:\n%s", path, dml, g.Format(), w.Format())
	}
}

func serve(t *testing.T, db *sim.Database) *client.Conn {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestShapeCacheDifferential: for the benchmark's ten statement shapes
// and random literal vectors, a warm shape-keyed cache returns what a
// database without a plan cache returns, and executes the plan a cold
// Explain chooses — for two literal streams, through Database.Query, a
// transaction's snapshot and read-your-writes views, and client.Conn.
func TestShapeCacheDifferential(t *testing.T) {
	ctx := context.Background()
	cold := shapeDB(t, sim.Config{PlanCacheSize: -1})
	for _, seed := range []int64{18, 21} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			warm := shapeDB(t, sim.Config{})
			conn := serve(t, warm)

			// The same uncommitted write on both sides: Tx.Query then reads
			// through the live executor, not a snapshot view.
			const transfer = `Modify student (major-department := department with (dept-nbr = 103)) Where soc-sec-no = 200000001.`
			wrote, err := warm.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer wrote.Rollback()
			coldWrote, err := cold.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer coldWrote.Rollback()
			for _, tx := range []*sim.Tx{wrote, coldWrote} {
				if _, err := tx.Exec(ctx, transfer); err != nil {
					t.Fatal(err)
				}
			}
			pinned, err := warm.Begin(ctx, sim.ReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Rollback()

			r := rand.New(rand.NewSource(seed))
			for round := 0; round < 12; round++ {
				for _, tpl := range shapeTemplates {
					dml := tpl.text(r)
					sameResult(t, "Database.Query", dml, warm.Query, cold.Query)
					sameResult(t, "Tx.Query (snapshot)", dml,
						func(q string) (*sim.Result, error) { return pinned.Query(ctx, q) }, cold.Query)
					sameResult(t, "Tx.Query (own writes)", dml,
						func(q string) (*sim.Result, error) { return wrote.Query(ctx, q) },
						func(q string) (*sim.Result, error) { return coldWrote.Query(ctx, q) })
					sameResult(t, "client.Conn.Query", dml, conn.Query, cold.Query)

					// The plan the cache executes is the plan a cold optimizer
					// picks for this very statement, est cost included.
					_, tr, err := warm.QueryTrace(dml)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cold.Explain(dml)
					if err != nil {
						t.Fatal(err)
					}
					if !tr.PlanCached {
						t.Fatalf("%s: not served from the plan cache after four executions", dml)
					}
					if tr.PlanDesc != want {
						t.Fatalf("%s\n  cached plan: %s\n  cold plan:   %s", dml, tr.PlanDesc, want)
					}
				}
			}

			// Shapes whose literals the optimizer never looks at share one
			// entry each; the three whose costing probes an index (name,
			// q-pivot-title, q-title-range) keep one plan per value.
			st := warm.Stats().Plans
			if st.Hits < 4*st.Misses {
				t.Errorf("plan cache: %d hits, %d misses; most statements should hit", st.Hits, st.Misses)
			}
			for _, shared := range []string{"unique", "eva", "q-advisor-join", "q-count-advisees", "q-credits-agg", "q-prereq-closure"} {
				for _, tpl := range shapeTemplates {
					if tpl.name != shared {
						continue
					}
					before := warm.Stats().Plans.Misses
					for i := 0; i < 20; i++ {
						if _, err := warm.Query(tpl.text(r)); err != nil {
							t.Fatal(err)
						}
					}
					if n := warm.Stats().Plans.Misses - before; n != 0 {
						t.Errorf("%s: %d misses over 20 fresh literal vectors, want 0 (one shared program)", shared, n)
					}
				}
			}
		})
	}
}

// TestShapeCacheEdges covers the places where a literal is more than an
// operand value.
func TestShapeCacheEdges(t *testing.T) {
	cold := shapeDB(t, sim.Config{PlanCacheSize: -1})
	warm := shapeDB(t, sim.Config{})
	same := func(dml string) {
		t.Helper()
		sameResult(t, "warm", dml, warm.Query, cold.Query)
	}
	misses := func(f func()) uint64 {
		before := warm.Stats().Plans.Misses
		f()
		return warm.Stats().Plans.Misses - before
	}

	// Literal kinds never share an entry: an integer, a number and a string
	// spelling of "the same" value are three shapes, each coerced (or
	// refused) against the attribute's declared type.
	if n := misses(func() {
		same(`From instructor Retrieve name Where salary = 30005.`)
		same(`From instructor Retrieve name Where salary = 30005.0.`)
		same(`From instructor Retrieve name Where salary = "30005".`) // cannot assign string to number
		same(`From instructor Retrieve name Where salary = 30007.`)
		same(`From instructor Retrieve name Where salary = 30007.00.`)
		same(`From instructor Retrieve name Where salary = "30007".`)
	}); n != 4 {
		t.Errorf("int/number/string spellings: %d misses, want 4 (two shapes cached once, the string shape failing twice)", n)
	}

	// A literal that does not fit the slot's declared subrange fails with
	// the cold path's error, and does not disturb the cached shape.
	same(`From department Retrieve name Where dept-nbr = 101.`)
	same(`From department Retrieve name Where dept-nbr = 5.`)
	same(`From department Retrieve name Where dept-nbr = 99999999999999999999.`)
	if n := misses(func() { same(`From department Retrieve name Where dept-nbr = 102.`) }); n != 0 {
		t.Errorf("dept-nbr = 102 after out-of-range literals: %d misses, want a hit", n)
	}
	// Dates and strings with escaped quotes re-coerce per execution.
	same(`From student Retrieve name Where birthdate = "1950-06-15".`)
	same(`From student Retrieve name Where birthdate = "1951-06-15".`)
	same(`From student Retrieve name Where birthdate = "not a date".`)
	same(`From student Retrieve soc-sec-no Where name = "Student ""7""".`)

	// NULL, TRUE and CURRENT DATE are keywords, not lifted literals.
	same(`From student Retrieve name Where advisor = NULL and soc-sec-no = 200000399.`)
	same(`From student Retrieve name Where birthdate < current date and soc-sec-no = 200000398.`)

	// Unary minus and the hyphen rules.
	if n := misses(func() {
		same(`From instructor Retrieve name Where salary > -5 and employee-nbr = 1001.`)
		same(`From instructor Retrieve name Where salary > -70000 and employee-nbr = 1002.`)
		same(`From instructor Retrieve name, salary-1 Where employee-nbr = 1003.`)
		same(`From instructor Retrieve name, salary - 1 Where employee-nbr = 1004.`)
	}); n != 2 {
		t.Errorf("unary minus / hyphen statements: %d misses, want 2", n)
	}

	// Literals in the target list name columns: one entry per value, each
	// with its own header. In aggregates' comparisons and ORDER BY they are
	// plain operands.
	if n := misses(func() {
		same(`From instructor Retrieve name, salary * 2 Where employee-nbr = 1005.`)
		same(`From instructor Retrieve name, salary * 3 Where employee-nbr = 1005.`)
		same(`From instructor Retrieve name, salary * 3 Where employee-nbr = 1006.`)
	}); n != 2 {
		t.Errorf("target-list literals: %d misses, want 2 (per multiplier, shared across keys)", n)
	}
	if n := misses(func() {
		same(`From instructor Retrieve name Where count(advisees) > 7 and salary < 30010.`)
		same(`From instructor Retrieve name Where count(advisees) > 8 and salary < 30020.`)
		same(`From instructor Retrieve name Order By salary * 2 Where employee-nbr < 1010.`)
		same(`From instructor Retrieve name Order By salary * -1 Where employee-nbr < 1012.`)
	}); n != 3 {
		t.Errorf("aggregate and ORDER BY literals: %d misses, want 3 shapes", n)
	}

	// Comments and layout are not part of a shape.
	if n := misses(func() {
		same("From department   Retrieve name (* which *)\n Where dept-nbr=103 . -- done")
	}); n != 0 {
		t.Errorf("re-spaced statement: %d misses, want a hit on the dept-nbr shape", n)
	}

	// A schema change drops every shape.
	if err := warm.DefineSchema(`Class Building ( bldg-nbr: integer (1..999) unique required );`); err != nil {
		t.Fatal(err)
	}
	if n := warm.Stats().Plans.Entries; n != 0 {
		t.Errorf("%d plan-cache entries after DefineSchema, want 0", n)
	}
	same(`From department Retrieve name Where dept-nbr = 104.`)
}

// TestTraceDescribesExecutingStatement: \analyze and QueryTrace.PlanDesc
// render the executing statement's key, not the one the shared plan was
// first made for.
func TestTraceDescribesExecutingStatement(t *testing.T) {
	db := shapeDB(t, sim.Config{})
	for i, ssn := range []int{200000010, 200000020} {
		dml := fmt.Sprintf(`From student Retrieve name Where soc-sec-no = %d.`, ssn)
		_, tr, err := db.QueryTrace(dml)
		if err != nil {
			t.Fatal(err)
		}
		if tr.PlanCached != (i == 1) {
			t.Errorf("lookup %d: PlanCached = %v", i, tr.PlanCached)
		}
		want := fmt.Sprintf("unique lookup soc-sec-no = %d", ssn)
		if !strings.Contains(tr.PlanDesc, want) {
			t.Errorf("PlanDesc %q does not show %q", tr.PlanDesc, want)
		}
		if len(tr.Nodes) == 0 || tr.Nodes[0].Access != want {
			t.Errorf("root node access %+v, want %q", tr.Nodes, want)
		}
		if out := tr.Render(); !strings.Contains(out, want) {
			t.Errorf("rendered trace does not show %q:\n%s", want, out)
		}
	}
}

// TestShapeCacheConcurrent hammers a cache far smaller than the set of
// shapes from several goroutines, so lookups, second-chance eviction and
// parameter binding overlap; run under -race.
func TestShapeCacheConcurrent(t *testing.T) {
	cold := shapeDB(t, sim.Config{PlanCacheSize: -1})
	warm := shapeDB(t, sim.Config{PlanCacheSize: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				dml := shapeTemplates[r.Intn(len(shapeTemplates))].text(r)
				got, err := warm.Query(dml)
				if err != nil {
					t.Errorf("%s: %v", dml, err)
					return
				}
				want, err := cold.Query(dml)
				if err != nil {
					t.Errorf("%s: %v", dml, err)
					return
				}
				if !bytes.Equal(wire.EncodeResult(got), wire.EncodeResult(want)) {
					t.Errorf("%s: warm and cold results differ", dml)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := warm.Stats().Plans.Entries; n > 4 {
		t.Errorf("%d entries in a cache of capacity 4", n)
	}
}

// TestCachedPlanFollowsCardinality: a plan cached while its class was
// tiny is re-made once the class has grown out of the size bucket it was
// costed for. A shape first planned on one student scans the class (the
// scan is cheaper than the unique index there); after 2 999 more students
// the same shape with another key must take the unique lookup — on an
// in-memory database and on a file-backed one.
func TestCachedPlanFollowsCardinality(t *testing.T) {
	for _, path := range []string{"", "univ.sim"} {
		name := "memory"
		if path != "" {
			name, path = "file", filepath.Join(t.TempDir(), path)
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			db, err := sim.Open(path, sim.Config{})
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
			if _, err := db.Exec(insert(0)); err != nil {
				t.Fatal(err)
			}
			first, err := db.ExplainAnalyze(`From student Retrieve name Where soc-sec-no = 200000000.`)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(first, "via scan student") {
				t.Fatalf("on one student the shape is planned as a scan; got\n%s", first)
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
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			out, err := db.ExplainAnalyze(`From student Retrieve name Where soc-sec-no = 200002345.`)
			if err != nil {
				t.Fatal(err)
			}
			var rows, instances int
			for _, line := range strings.Split(out, "\n") {
				if _, err := fmt.Sscanf(line, "rows: %d  instances: %d", &rows, &instances); err == nil {
					break
				}
			}
			if !strings.Contains(out, "unique lookup soc-sec-no = 200002345") || rows != 1 || instances > 10 {
				t.Fatalf("the shape kept the plan made for one student:\n%s", out)
			}
		})
	}
}

// updateTemplates are Insert, Modify and Delete shapes over shapeDB's
// population, each with a generator of literal vectors: mostly values
// that exist, some that do not, and literals that fail to coerce.
var updateTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string { // INCLUDE
		return fmt.Sprintf(`Modify student (courses-enrolled := include course with (course-no = %d)) Where soc-sec-no = %d.`, 1+r.Intn(64), 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string { // EXCLUDE
		return fmt.Sprintf(`Modify student (courses-enrolled := exclude courses-enrolled with (course-no = %d)) Where soc-sec-no = %d.`, 1+r.Intn(60), 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string { // NULL to an EVA
		return fmt.Sprintf(`Modify student (advisor := NULL) Where soc-sec-no = %d.`, 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`Modify student (advisor := instructor with (employee-nbr = %d), major-department := department with (dept-nbr = %d)) Where soc-sec-no = %d.`,
			1001+r.Intn(44), 100+r.Intn(8), 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`Modify instructor (salary := 1.1 * salary) Where employee-nbr = %d.`, 1001+r.Intn(44))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`Modify instructor (bonus := salary - %d) Where employee-nbr = %d.`, 20000+r.Intn(20000), 1001+r.Intn(44))
	},
	func(r *rand.Rand) string { // a date literal that may not coerce
		dates := []string{"1971-02-03", "1969-12-31", "1970-13-45", "not a date"}
		return fmt.Sprintf(`Modify student (birthdate := "%s") Where soc-sec-no = %d.`, dates[r.Intn(len(dates))], 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string { // a subrange literal that may not coerce
		return fmt.Sprintf(`Modify student (student-nbr := %d) Where soc-sec-no = %d.`, []int{1200, 45000, 60001, 7}[r.Intn(4)], 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string { // a WHERE literal outside its subrange
		return fmt.Sprintf(`Modify department (name := "Dept %d") Where dept-nbr = %d.`, r.Intn(1000), []int{101, 103, 5, 4000}[r.Intn(4)])
	},
	func(r *rand.Rand) string { // fixed literals: title's costing probes its index
		return fmt.Sprintf(`Modify student (courses-enrolled := include course with (title = "Course %04d")) Where name = "Student %05d".`, r.Intn(62), r.Intn(420))
	},
	func(r *rand.Rand) string {
		n := r.Intn(1 << 20)
		return fmt.Sprintf(`Insert student (name := "New %d", soc-sec-no := %d, student-nbr := %d, major-department := department with (dept-nbr = %d), courses-enrolled := course with (course-no = %d)).`,
			n, 300000000+n, 1001+r.Intn(40000), 100+r.Intn(7), 1+r.Intn(62))
	},
	func(r *rand.Rand) string { // Insert … FROM
		return fmt.Sprintf(`Insert teaching-assistant From student Where soc-sec-no = %d (employee-nbr := %d, salary := %d, teaching-load := %d).`,
			200000000+r.Intn(420), 2000+r.Intn(3000), 10000+r.Intn(5000), r.Intn(24))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`Modify course (prerequisites := include course with (course-no = %d)) Where course-no = %d.`, 1+r.Intn(60), 1+r.Intn(60))
	},
	func(r *rand.Rand) string { // a cascade down the roles
		return fmt.Sprintf(`Delete student Where soc-sec-no = %d.`, 200000000+r.Intn(420))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`Delete person Where soc-sec-no = %d.`, []int{100000000, 200000000}[r.Intn(2)]+r.Intn(420))
	},
}

// fixtureUpdates are update statements over the university fixture.
var fixtureUpdates = []string{
	`Modify student (courses-enrolled := include course with (title = "Databases")) Where name = "John Doe".`,
	`Modify student (courses-enrolled := include course with (title = "Mechanics")) Where name = "Tom Thumb".`,
	`Modify student (courses-enrolled := exclude courses-enrolled with (title = "Calculus I")) Where name = "Mary Major".`,
	`Modify student (courses-enrolled := exclude courses-enrolled with (title = "Algebra I")) Where name = "John Doe".`,
	`Modify student (advisor := NULL) Where soc-sec-no = 456887766.`,
	`Modify student (advisor := instructor with (name = "Bob Stone")) Where soc-sec-no = 456887768.`,
	`Modify instructor (salary := 1.1 * salary) Where employee-nbr = 1729.`,
	`Modify instructor (salary := 1.1 * salary) Where employee-nbr = 1730.`,
	`Modify instructor (salary := 1.5 * salary) Where employee-nbr = 1729.`,
	`Modify student (birthdate := "1961-02-02") Where soc-sec-no = 456887766.`,
	`Modify student (birthdate := "1961-02-30") Where soc-sec-no = 456887767.`,
	`Modify student (student-nbr := 50000) Where soc-sec-no = 456887768.`,
	`Modify student (student-nbr := 1504) Where soc-sec-no = 456887768.`,
	`Modify teaching-assistant (teaching-load := 25) Where soc-sec-no = 100000004.`,
	`Modify teaching-assistant (teaching-load := 7) Where soc-sec-no = 100000004.`,
	`Insert teaching-assistant From student Where soc-sec-no = 456887767 (employee-nbr := 1760, salary := 1000, teaching-load := 3).`,
	`Insert teaching-assistant From student Where soc-sec-no = 456887768 (employee-nbr := 1761, salary := 1000, teaching-load := 4).`,
	`Insert student (name := "Ned New", soc-sec-no := 456887770, student-nbr := 1505, courses-enrolled := course with (course-no = 101)).`,
	`Insert student (name := "Nora New", soc-sec-no := 456887771, student-nbr := 1506, courses-enrolled := course with (course-no = 102)).`,
	`Modify course (prerequisites := include course with (course-no = 301)) Where course-no = 999.`,
	`Delete student Where soc-sec-no = 100000004.`,
	`Delete person Where soc-sec-no = 456887769.`,
	`Delete instructor Where employee-nbr = 1731.`,
}

// dumpClasses renders every class's entities, one Retrieve per immediate
// attribute, in the wire encoding.
func dumpClasses(t *testing.T, db *sim.Database) []byte {
	t.Helper()
	var out []byte
	for _, cl := range db.Catalog().Classes() {
		for _, a := range cl.Attrs {
			if a.Implicit {
				continue
			}
			q := fmt.Sprintf(`From %s Retrieve %s.`, cl.Name, a.Name)
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			out = append(out, q...)
			out = append(out, wire.EncodeResult(r)...)
		}
	}
	return out
}

// TestUpdateShapeDifferential: updates served from the shape cache leave
// the database exactly as a database without a plan cache does — the
// fixture and the university workload, through Database.Exec, explicit
// transactions and scripts — with the same error for every statement.
func TestUpdateShapeDifferential(t *testing.T) {
	ctx := context.Background()
	type step struct {
		dml string
		via int // 0: Exec, 1: a transaction, 2: a script
	}
	run := func(t *testing.T, cold, warm *sim.Database, steps []step) {
		t.Helper()
		var txs [2]*sim.Tx
		for i, s := range steps {
			var errs [2]error
			var ns [2]int
			for k, db := range []*sim.Database{cold, warm} {
				switch s.via {
				case 0:
					ns[k], errs[k] = db.Exec(s.dml)
				case 1:
					if txs[k] == nil {
						if txs[k], errs[k] = db.Begin(ctx); errs[k] != nil {
							break
						}
					}
					ns[k], errs[k] = txs[k].Exec(ctx, s.dml)
					if i == len(steps)-1 || steps[i+1].via != 1 || i%3 == 2 {
						if err := txs[k].Commit(); errs[k] == nil {
							errs[k] = err
						}
						txs[k] = nil
					}
				case 2:
					_, errs[k] = db.Run(s.dml)
				}
			}
			if ns[0] != ns[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("%s (via %d):\n  cache disabled: %d, %v\n  shape cache:    %d, %v", s.dml, s.via, ns[0], errs[0], ns[1], errs[1])
			}
		}
		for k, db := range []*sim.Database{cold, warm} {
			if err := db.CheckIntegrity(); err != nil {
				t.Errorf("database %d: %v", k, err)
			}
		}
		if !bytes.Equal(dumpClasses(t, cold), dumpClasses(t, warm)) {
			t.Fatal("the class dumps differ")
		}
		if st := warm.Stats().Plans; st.Hits == 0 {
			t.Errorf("no update was served from the cache: %+v", st)
		}
	}

	t.Run("fixture", func(t *testing.T) {
		open := func(cfg sim.Config) *sim.Database {
			db, err := sim.Open("", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			if err := db.DefineSchema(university.DDL); err != nil {
				t.Fatal(err)
			}
			return db
		}
		cold, warm := open(sim.Config{PlanCacheSize: -1}), open(sim.Config{})
		var steps []step
		for _, dml := range university.Fixture {
			steps = append(steps, step{dml: dml})
		}
		for i, dml := range fixtureUpdates {
			steps = append(steps, step{dml: dml, via: i % 3})
		}
		run(t, cold, warm, steps)
	})
	t.Run("workload", func(t *testing.T) {
		cold, warm := shapeDB(t, sim.Config{PlanCacheSize: -1}), shapeDB(t, sim.Config{})
		r := rand.New(rand.NewSource(45))
		var steps []step
		for round := 0; round < 8; round++ {
			for i, tpl := range updateTemplates {
				steps = append(steps, step{dml: tpl(r), via: (round + i) % 3})
			}
		}
		run(t, cold, warm, steps)
	})
}

// TestUpdateShapeHits: executions of one update shape with different
// literals pay parse, bind, optimize and compile once — through
// Database.Exec and through explicit transactions, whose conflict check
// and execution share the one compiled form.
func TestUpdateShapeHits(t *testing.T) {
	ctx := context.Background()
	db := shapeDB(t, sim.Config{})
	const n = 20
	for _, door := range []string{"Exec", "Tx.Exec"} {
		before := db.Stats().Plans
		for i := 0; i < n; i++ {
			if door == "Exec" {
				if _, err := db.Exec(fmt.Sprintf(`Modify student (name := "Renamed %d") Where soc-sec-no = %d.`, i, 200000000+i)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(ctx, fmt.Sprintf(`Modify instructor (salary := %d) Where employee-nbr = %d.`, 40000+i, 1001+i)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		after := db.Stats().Plans
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; misses != 1 || hits != n-1 {
			t.Errorf("%s: %d executions of one Modify shape gave %d misses and %d hits, want 1 and %d", door, n, misses, hits, n-1)
		}
	}
}
