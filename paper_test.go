package sim_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"

	"sim"
	"sim/internal/luc"
	"sim/internal/university"
)

// TestPaperClaims asserts the shapes of EXPERIMENTS.md's T1–T8: the
// paper's §3.3, §4.5, §4.7, §5.1 and §5.2 performance claims, each turned
// into an ablation over the same data under alternative physical mappings
// or strategies. The mappings preserve the data, so they may differ only
// in cost, and every assertion is on a deterministic cost counter: pool
// page accesses, cold pool misses, LUC record lookups, or the strategy
// Explain reports. Wall time lives in bench_test.go's Benchmark functions.
// `go test -run TestPaperClaims -v .` prints the tables.
func TestPaperClaims(t *testing.T) {
	w := university.DefaultWorkload
	serial := sim.Config{Workers: 1}
	withMapping := func(m luc.Config) sim.Config { return sim.Config{Workers: 1, Mapping: m} }

	t.Run("T1", func(t *testing.T) {
		// §5.2: "The mapping of EVAs is the key factor in determining
		// SIM's performance." A foreign key makes the single-valued side
		// an in-record access; from the multi-valued side it needs the
		// additional index structure and loses its advantage.
		queries := []query{
			{"student→advisor", `From student Retrieve name of advisor.`},
			{"instructor→advisees", `From instructor Retrieve name, count(advisees).`},
		}
		mappings := []mapping{
			{"common-eva-structure", evaMapping(luc.EVACommon)},
			{"foreign-key", evaMapping(luc.EVAForeignKey)},
			{"private-structure", evaMapping(luc.EVAPrivate)},
		}
		c := coldAblation(t, "T1 — EVA mapping (advisor/advisees)", mappings, queries,
			func(db university.DB) error { return university.BuildUniversity(db, w) })
		ces, fk := c[0], c[1]
		if fk[0].cold*10 > ces[0].cold {
			t.Errorf("student→advisor: foreign key misses %d cold, Common EVA Structure %d; want ≤ 1/10", fk[0].cold, ces[0].cold)
		}
		if d := absDiff(fk[1].cold, ces[1].cold); d*4 > ces[1].cold {
			t.Errorf("instructor→advisees: foreign key misses %d cold, Common EVA Structure %d; want within ±25%%", fk[1].cold, ces[1].cold)
		}
	})

	t.Run("T2", func(t *testing.T) {
		// §5.2: the single variable-format record puts every inherited
		// single-valued DVA in one physical record; one unit per class
		// must assemble a record from each role's unit, but scans a
		// subclass without touching the rest of the hierarchy.
		queries := []query{
			{"inherited attrs of students", `From student Retrieve name, birthdate, student-nbr.`},
			{"scan subclass among hierarchy", `From instructor Retrieve employee-nbr.`},
		}
		mappings := []mapping{
			{"single-record", luc.Config{}},
			{"split-per-class", luc.Config{Hierarchy: map[string]luc.HierarchyStrategy{
				"person": luc.HierarchySplit, "course": luc.HierarchySplit, "department": luc.HierarchySplit}}},
		}
		c := coldAblation(t, "T2 — hierarchy mapping", mappings, queries,
			func(db university.DB) error { return university.BuildUniversity(db, w) })
		single, split := c[0], c[1]
		if single[0].cold >= split[0].cold || single[0].accesses >= split[0].accesses {
			t.Errorf("inherited attrs: single record %d cold misses / %d accesses, split %d / %d; want single fewer on both",
				single[0].cold, single[0].accesses, split[0].cold, split[0].accesses)
		}
		if split[1].cold >= single[1].cold {
			t.Errorf("subclass scan: split %d cold misses, single record %d; want split fewer", split[1].cold, single[1].cold)
		}
	})

	t.Run("T3", func(t *testing.T) {
		// §5.2: MV DVAs with the MAX option are "stored as arrays in the
		// same physical record with their owner": reading them costs
		// nothing extra, but every scan of the owner carries them.
		const notes, tags = 300, 24
		queries := []query{
			{"read all tags", `From note Retrieve note-no, tags.`},
			{"scan owners only", `From note Retrieve body.`},
		}
		mappings := []mapping{
			{"embedded", luc.Config{MVDVA: map[string]luc.MVDVAStrategy{"note.tags": luc.MVEmbedded}}},
			{"separate-unit", luc.Config{MVDVA: map[string]luc.MVDVAStrategy{"note.tags": luc.MVSeparate}}},
		}
		c := coldAblation(t, fmt.Sprintf("T3 — MV DVA mapping (%d notes × %d tags)", notes, tags), mappings, queries,
			func(db university.DB) error { return university.BuildNotes(db, notes, tags) })
		emb, sep := c[0], c[1]
		if emb[0].cold >= sep[0].cold {
			t.Errorf("read all tags: embedded %d cold misses, separate unit %d; want embedded fewer", emb[0].cold, sep[0].cold)
		}
		if sep[1].cold >= emb[1].cold {
			t.Errorf("scan owners only: separate unit %d cold misses, embedded %d; want separate fewer", sep[1].cold, emb[1].cold)
		}
	})

	t.Run("T4", func(t *testing.T) {
		// §5.1: the optimizer enumerates strategies and picks the
		// cheapest; selective predicates on related classes enumerate the
		// perspective through inverse relationships instead of scanning it.
		opt := openUniversity(t, withMapping(luc.Config{Indexes: []string{"person.name", "course.title"}}), w)
		scan := openUniversity(t, serial, w)
		queries := []struct {
			query
			strategy string
		}{
			{query{"unique point lookup", `From person Retrieve name Where soc-sec-no = 200000007.`}, "unique lookup"},
			{query{"index equality on name", `From person Retrieve soc-sec-no Where name = "Student 00007".`}, "index range"},
			{query{"pivot via advisor", `From student Retrieve soc-sec-no Where name of advisor = "Instructor 0003".`}, "pivot"},
			{query{"pivot via enrollment", `From student Retrieve name Where title of courses-enrolled = "Course 0011".`}, "pivot"},
		}
		tbl := table{header: []string{"query", "optimized strategy", "accesses", "forced-scan strategy", "accesses", "rows"}}
		for _, q := range queries {
			optStrat, scanStrat := strategy(t, opt, q.text), strategy(t, scan, q.text)
			o, s := measure(t, opt, q.text), measure(t, scan, q.text)
			tbl.add(q.label, optStrat, o.accesses, scanStrat, s.accesses, o.rows)
			if !strings.Contains(optStrat, q.strategy) {
				t.Errorf("%s: optimizer chose %q, want %s", q.label, optStrat, q.strategy)
			}
			if o.accesses > s.accesses {
				t.Errorf("%s: optimized plan makes %d page accesses, forced scan %d", q.label, o.accesses, s.accesses)
			}
			if o.rows != s.rows {
				t.Errorf("%s: optimized plan returns %d rows, forced scan %d", q.label, o.rows, s.rows)
			}
		}
		tbl.log(t, "T4 — optimizer: chosen strategy vs forced perspective scan")
	})

	t.Run("T5", func(t *testing.T) {
		// §5.1: a strategy that breaks perspective order is charged the
		// cost of re-sorting its output, so as the predicate widens the
		// pivot's traversal plus sort overtakes the scan and the
		// optimizer switches.
		db := openUniversity(t, withMapping(luc.Config{Indexes: []string{"course.title"}}), w)
		tbl := table{header: []string{"matching courses", "strategy chosen", "accesses", "rows"}}
		chosen := map[int]string{}
		for _, width := range []int{1, w.Courses / 8, w.Courses / 2, w.Courses} {
			q := fmt.Sprintf(`From student Retrieve soc-sec-no Where title of courses-enrolled >= "Course 0000" and title of courses-enrolled < "Course %04d".`, width)
			chosen[width] = strategy(t, db, q)
			c := measure(t, db, q)
			tbl.add(width, chosen[width], c.accesses, c.rows)
		}
		tbl.log(t, "T5 — ordering: pivot (index + inverse walk + sort) vs perspective scan")
		if !strings.Contains(chosen[10], "pivot") || !strings.Contains(chosen[40], "scan") {
			t.Errorf("strategy at width 10 is %q and at width 40 is %q; want pivot, then scan", chosen[10], chosen[40])
		}
	})

	t.Run("T6", func(t *testing.T) {
		// §4.5: selection-only variables are quantified "for some", so
		// their enumeration stops at the first witness. Every enrolled
		// student satisfies >= 200000000, so the existential form stops
		// at each course's first student; the aggregate and the
		// witness-free form must read the whole roster.
		db := openUniversity(t, serial, w)
		forms := []query{
			{"existential (TYPE 2)", `From course Retrieve title Where soc-sec-no of students-enrolled >= 200000000.`},
			{"full enumeration (aggregate)", `From course Retrieve title Where min(soc-sec-no of students-enrolled) >= 200000000.`},
			{"existential, no witness", `From course Retrieve title Where soc-sec-no of students-enrolled < 200000000.`},
		}
		tbl := table{header: []string{"form", "record lookups", "rows"}}
		var c []cost
		for _, f := range forms {
			c = append(c, measure(t, db, f.text))
			tbl.add(f.label, c[len(c)-1].lookups, c[len(c)-1].rows)
		}
		tbl.log(t, "T6 — query tree: TYPE 2 existential early exit vs full enumeration")
		if c[0].lookups >= c[1].lookups {
			t.Errorf("existential form does %d record lookups, the aggregate %d; want fewer", c[0].lookups, c[1].lookups)
		}
	})

	t.Run("T7", func(t *testing.T) {
		// §4.7: transitive closure over a cyclic chain of EVAs; its cost
		// grows with the closure, not the class.
		tbl := table{header: []string{"chain length", "closure size", "record lookups"}}
		for _, n := range []int{8, 32, 128, 512} {
			db := openLoaded(t, serial, func(db university.DB) error { return university.BuildPrereqChain(db, n) })
			q := fmt.Sprintf(`From course Retrieve count distinct (transitive(prerequisites)) Where course-no = %d.`, n)
			c := measure(t, db, q)
			size := xSingle(t, db, q).String()
			tbl.add(n, size, c.lookups)
			if size != fmt.Sprint(n-1) {
				t.Errorf("chain %d: closure size %s, want %d", n, size, n-1)
			}
			if c.lookups != uint64(n) {
				t.Errorf("chain %d: %d record lookups, want %d (one per course on the chain)", n, c.lookups, n)
			}
		}
		tbl.log(t, "T7 — transitive closure over prerequisite chains")
	})

	t.Run("T8", func(t *testing.T) {
		// §3.3: VERIFY is enforced by trigger detection and query
		// enhancement, so an update re-checks only the entities it can
		// affect. Doubling the class must not change an update's cost.
		ops := []query{
			{"modify salary", `Modify instructor (salary := salary + 1) Where employee-nbr = 1005.`},
			{"modify course credits", `Modify course (credits := 14) Where course-no = 3.`},
		}
		schemas := []struct {
			label string
			ddl   string
			scale int
		}{
			{"with verifies", university.DDL, 1},
			{"with verifies", university.DDL, 2},
			{"without verifies", stripVerifies(university.DDL), 1},
		}
		tbl := table{header: []string{"schema", "scale", "operation", "record lookups"}}
		lookups := map[string][]uint64{}
		for _, s := range schemas {
			db := openLoaded(t, serial, func(db university.DB) error {
				if err := db.DefineSchema(s.ddl); err != nil {
					return err
				}
				return university.Populate(db, w.Scale(s.scale))
			})
			for _, op := range ops {
				n := execLookups(t, db, op.text)
				tbl.add(s.label, s.scale, op.label, n)
				if s.ddl == university.DDL {
					lookups[op.label] = append(lookups[op.label], n)
				}
			}
		}
		tbl.log(t, "T8 — VERIFY enforcement: trigger detection + targeted re-check")
		for _, op := range ops {
			if l := lookups[op.label]; l[0] != l[1] {
				t.Errorf("%s: %d record lookups at scale 1, %d at scale 2; want equal", op.label, l[0], l[1])
			}
		}
	})
}

// TestBuildUniversityWorkload holds the workload builder to its promise:
// the population loads in full and satisfies the schema's assertions.
func TestBuildUniversityWorkload(t *testing.T) {
	db := openUniversity(t, sim.Config{}, university.Workload{
		Departments: 2, Instructors: 4, Students: 20, Courses: 8, EnrollPer: 2, AdvisePer: 5,
	})
	if got := xSingle(t, db, `From student Retrieve Table Distinct count(soc-sec-no of student).`).String(); got != "20" {
		t.Errorf("students loaded = %s", got)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Errorf("workload violates the schema's assertions: %v", err)
	}
}

func TestStripVerifies(t *testing.T) {
	out := strings.ToLower(stripVerifies(university.DDL))
	if strings.Contains(out, "verify") {
		t.Error("verifies survive stripping")
	}
	if !strings.Contains(out, "class person") {
		t.Error("classes stripped too")
	}
}

// openLoaded opens an in-memory database, runs load on it, and closes it
// when the test ends.
func openLoaded(tb testing.TB, cfg sim.Config, load func(university.DB) error) *sim.Database {
	tb.Helper()
	db, err := sim.Open("", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if err := load(db); err != nil {
		tb.Fatal(err)
	}
	return db
}

// openUniversity opens an in-memory database loaded with workload w.
func openUniversity(tb testing.TB, cfg sim.Config, w university.Workload) *sim.Database {
	tb.Helper()
	return openLoaded(tb, cfg, func(db university.DB) error { return university.BuildUniversity(db, w) })
}

// stripVerifies removes the Verify declarations from a DDL text.
func stripVerifies(ddl string) string {
	var out []string
	skip := false
	for _, line := range strings.Split(ddl, "\n") {
		l := strings.TrimSpace(strings.ToLower(line))
		if strings.HasPrefix(l, "verify") {
			skip = true
		}
		if !skip {
			out = append(out, line)
		}
		if skip && strings.HasSuffix(l, ";") {
			skip = false
		}
	}
	return strings.Join(out, "\n")
}

type query struct{ label, text string }

type mapping struct {
	label string
	cfg   luc.Config
}

func evaMapping(s luc.EVAStrategy) luc.Config {
	return luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": s}}
}

// cost is one query's deterministic price.
type cost struct {
	cold     uint64 // pool misses of the first run (cold when the database was just opened)
	accesses uint64 // pool accesses (hits + misses) of a second run
	lookups  uint64 // LUC record lookups (cache hits + misses) of the second run
	rows     int
}

// measure runs q twice and reads the counters of each run.
func measure(t *testing.T, db *sim.Database, q string) cost {
	t.Helper()
	db.ResetStats()
	xQuery(t, db, q)
	cold := db.Stats().Pool.Misses
	db.ResetStats()
	r := xQuery(t, db, q)
	st := db.Stats()
	return cost{cold: cold, accesses: st.Pool.Hits + st.Pool.Misses, lookups: st.Cache.Hits + st.Cache.Misses, rows: r.NumRows()}
}

// execLookups runs an update twice and returns the second run's LUC
// record lookups, integrity re-checks included.
func execLookups(t *testing.T, db *sim.Database, stmt string) uint64 {
	t.Helper()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	db.ResetStats()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	st := db.Stats()
	return st.Cache.Hits + st.Cache.Misses
}

// strategy is the optimizer's chosen strategy for q, without its cost.
func strategy(t *testing.T, db *sim.Database, q string) string {
	t.Helper()
	ex, err := db.Explain(q)
	if err != nil {
		t.Fatalf("Explain(%q): %v", q, err)
	}
	return strings.SplitN(ex, " (", 2)[0]
}

// coldPool is smaller than every ablation's data, so a cold run's pool
// misses count the pages the mapping makes it read.
const coldPool = 16

// coldAblation loads the same data under each mapping into its own file,
// then measures each query on a fresh opening of that file with a
// coldPool-page pool. It logs the table and returns costs by mapping,
// then query.
func coldAblation(t *testing.T, title string, mappings []mapping, queries []query, load func(university.DB) error) [][]cost {
	t.Helper()
	tbl := table{header: []string{"mapping", "operation", "cold misses", "accesses", "rows"}}
	out := make([][]cost, len(mappings))
	for i, m := range mappings {
		cfg := sim.Config{Workers: 1, PoolPages: coldPool, Mapping: m.cfg}
		path := filepath.Join(t.TempDir(), "ablation.sim")
		reopen := func() *sim.Database {
			db, err := sim.Open(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		db := reopen()
		tl := &txLoader{db: db}
		if err := load(tl); err != nil {
			t.Fatal(err)
		}
		if err := tl.tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			db := reopen()
			c := measure(t, db, q.text)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], c)
			tbl.add(m.label, q.label, c.cold, c.accesses, c.rows)
		}
	}
	tbl.log(t, title)
	return out
}

// txLoader runs a loader's statements in one transaction, so a
// file-backed load pays one commit fsync instead of one per statement.
type txLoader struct {
	db *sim.Database
	tx *sim.Tx
}

func (l *txLoader) DefineSchema(ddl string) error { return l.db.DefineSchema(ddl) }

func (l *txLoader) Exec(dml string) (int, error) {
	if l.tx == nil {
		tx, err := l.db.Begin(context.Background())
		if err != nil {
			return 0, err
		}
		l.tx = tx
	}
	return l.tx.Exec(context.Background(), dml)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// table collects rows for one experiment's log output.
type table struct {
	header []string
	rows   [][]any
}

func (tb *table) add(cells ...any) { tb.rows = append(tb.rows, cells) }

func (tb *table) log(t *testing.T, title string) {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(tb.header, "\t"))
	for _, row := range tb.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = fmt.Sprint(c)
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	t.Logf("%s\n%s", title, b.String())
}
