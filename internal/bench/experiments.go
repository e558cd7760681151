package bench

import (
	"fmt"
	"strings"
	"time"

	"sim"
	"sim/internal/luc"
)

// Table is one experiment's output, printed by cmd/simbench and recorded
// in EXPERIMENTS.md.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		b.WriteString(t.Notes)
		b.WriteByte('\n')
	}
	return b.String()
}

// timeQuery runs a query n times, returning mean duration and total page
// accesses (pool hits+misses) per run.
func timeQuery(db *sim.Database, q string, n int) (time.Duration, uint64, int, error) {
	r, err := db.Query(q) // warm
	if err != nil {
		return 0, 0, 0, err
	}
	rows := r.NumRows()
	db.ResetStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := db.Query(q); err != nil {
			return 0, 0, 0, err
		}
	}
	el := time.Since(start) / time.Duration(n)
	st := db.Stats()
	return el, (st.Pool.Hits + st.Pool.Misses) / uint64(n), rows, nil
}

func dur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// T1 — EVA mapping ablation (§5.2): the advisor/advisees (many:1)
// relationship under the Common EVA Structure vs a foreign-key mapping,
// traversed from both sides.
func T1(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T1",
		Title:  "EVA mapping: Common EVA Structure vs foreign key (advisor/advisees)",
		Header: []string{"mapping", "direction", "time/query", "page accesses", "rows"},
		Notes:  "claim (§5.2): \"The mapping of EVAs is the key factor in determining SIM's performance\";\nforeign keys make the single-valued side a 0-I/O in-record access, while the\nCommon EVA Structure pays a structure probe per first instance.",
	}
	configs := []struct {
		name string
		cfg  luc.Config
	}{
		{"common-eva-structure", luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVACommon}}},
		{"foreign-key", luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVAForeignKey}}},
		{"private-structure", luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVAPrivate}}},
	}
	queries := []struct{ dir, q string }{
		{"student→advisor", `From student Retrieve name of advisor.`},
		{"instructor→advisees", `From instructor Retrieve name, count(advisees).`},
	}
	for _, c := range configs {
		db, err := BuildUniversity(sim.Config{Mapping: c.cfg}, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		for _, q := range queries {
			el, pages, rows, err := timeQuery(db, q.q, reps)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			t.Rows = append(t.Rows, []string{c.name, q.dir, dur(el), fmt.Sprint(pages), fmt.Sprint(rows)})
		}
		db.Close()
	}
	return t, nil
}

// T2 — hierarchy mapping ablation (§5.2): one storage unit with
// variable-format records vs one unit per class with 1:1 subclass links.
func T2(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T2",
		Title:  "Hierarchy mapping: variable-format single unit vs split per class",
		Header: []string{"mapping", "operation", "time/query", "page accesses", "rows"},
		Notes:  "claim (§5.2): the single-unit mapping \"ensures that all immediate and inherited\nsingle-valued DVAs applicable to a class will be in one physical record\"; the\nsplit mapping must assemble a record from one unit per role, but scans a\nsubclass without touching the rest of the hierarchy.",
	}
	configs := []struct {
		name string
		cfg  luc.Config
	}{
		{"single-record", luc.Config{}},
		{"split-per-class", luc.Config{Hierarchy: map[string]luc.HierarchyStrategy{
			"person": luc.HierarchySplit, "course": luc.HierarchySplit, "department": luc.HierarchySplit}}},
	}
	queries := []struct{ op, q string }{
		{"inherited attrs of students", `From student Retrieve name, birthdate, student-nbr.`},
		{"scan subclass among hierarchy", `From instructor Retrieve employee-nbr.`},
	}
	for _, c := range configs {
		db, err := BuildUniversity(sim.Config{Mapping: c.cfg}, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		for _, q := range queries {
			el, pages, rows, err := timeQuery(db, q.q, reps)
			if err != nil {
				db.Close()
				return nil, err
			}
			t.Rows = append(t.Rows, []string{c.name, q.op, dur(el), fmt.Sprint(pages), fmt.Sprint(rows)})
		}
		db.Close()
	}
	return t, nil
}

// T3 — multi-valued DVA mapping (§5.2): bounded in-record arrays vs a
// separate dependent storage unit.
func T3(n, k, reps int) (*Table, error) {
	t := &Table{
		ID:     "T3",
		Title:  fmt.Sprintf("MV DVA mapping: embedded array vs separate unit (%d notes × %d tags)", n, k),
		Header: []string{"mapping", "operation", "time/query", "page accesses", "rows"},
		Notes:  "claim (§5.2): bounded MV DVAs are \"stored as arrays in the same physical record\nwith their owner\" — reading them costs nothing extra, but they inflate the\nrecord every scan of the owner must carry.",
	}
	configs := []struct {
		name string
		cfg  luc.Config
	}{
		{"embedded", luc.Config{MVDVA: map[string]luc.MVDVAStrategy{"note.tags": luc.MVEmbedded}}},
		{"separate-unit", luc.Config{MVDVA: map[string]luc.MVDVAStrategy{"note.tags": luc.MVSeparate}}},
	}
	queries := []struct{ op, q string }{
		{"read all tags", `From note Retrieve note-no, tags.`},
		{"scan owners only", `From note Retrieve body.`},
	}
	for _, c := range configs {
		db, err := BuildNotes(sim.Config{Mapping: c.cfg}, n, k)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		for _, q := range queries {
			el, pages, rows, err := timeQuery(db, q.q, reps)
			if err != nil {
				db.Close()
				return nil, err
			}
			t.Rows = append(t.Rows, []string{c.name, q.op, dur(el), fmt.Sprint(pages), fmt.Sprint(rows)})
		}
		db.Close()
	}
	return t, nil
}

// T4 — optimizer strategy selection (§5.1): selective predicates through
// indexes and pivots vs naive perspective scans.
func T4(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T4",
		Title:  "Optimizer: chosen strategy vs forced perspective scan",
		Header: []string{"query", "strategy", "time/query", "page accesses", "rows"},
		Notes:  "claim (§5.1): the optimizer enumerates strategies over the query graph and picks\nby estimated cost; selective predicates on related classes enumerate the\nperspective through inverted relationships instead of scanning it.",
	}
	idx := luc.Config{Indexes: []string{"person.name", "course.title"}}
	withIdx, err := BuildUniversity(sim.Config{Mapping: idx}, w)
	if err != nil {
		return nil, err
	}
	defer withIdx.Close()
	noIdx, err := BuildUniversity(sim.Config{}, w)
	if err != nil {
		return nil, err
	}
	defer noIdx.Close()

	queries := []struct{ name, q string }{
		{"unique point lookup", `From person Retrieve name Where soc-sec-no = 200000007.`},
		{"index equality on name", `From person Retrieve soc-sec-no Where name = "Student 00007".`},
		{"pivot via advisor", `From student Retrieve soc-sec-no Where name of advisor = "Instructor 0003".`},
		{"pivot via enrollment", `From student Retrieve name Where title of courses-enrolled = "Course 0011".`},
	}
	for _, q := range queries {
		for _, env := range []struct {
			label string
			db    *sim.Database
		}{{"optimized", withIdx}, {"forced-scan", noIdx}} {
			ex, err := env.db.Explain(q.q)
			if err != nil {
				return nil, err
			}
			el, pages, rows, err := timeQuery(env.db, q.q, reps)
			if err != nil {
				return nil, err
			}
			strat := env.label + ": " + strings.SplitN(ex, " (", 2)[0]
			t.Rows = append(t.Rows, []string{q.name, strat, dur(el), fmt.Sprint(pages), fmt.Sprint(rows)})
		}
	}
	return t, nil
}

// T5 — semantics preservation (§5.1): the pivot strategy restores
// perspective order by sorting; as the predicate loses selectivity the
// sort + traversal overtake the plain scan and the optimizer reverts.
func T5(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T5",
		Title:  "Ordering: pivot (index + inverse walk + sort) vs perspective scan, by selectivity",
		Header: []string{"matching courses", "strategy chosen", "time/query", "rows"},
		Notes:  "claim (§5.1): \"Transformation of a query graph for a strategy is tested to see\nif it is semantics-preserving, and, if it is not, the cost of reordering/sorting\noutput is added to the cost of a strategy.\"",
	}
	db, err := BuildUniversity(sim.Config{Mapping: luc.Config{Indexes: []string{"course.title"}}}, w)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// Title ranges of increasing width: more matching courses → more
	// students reached through enrollment → pivot less attractive.
	for _, width := range []int{1, w.Courses / 8, w.Courses / 2, w.Courses} {
		hi := fmt.Sprintf("Course %04d", width)
		q := fmt.Sprintf(`From student Retrieve soc-sec-no Where title of courses-enrolled >= "Course 0000" and title of courses-enrolled < %q.`, hi)
		ex, err := db.Explain(q)
		if err != nil {
			return nil, err
		}
		el, _, rows, err := timeQuery(db, q, reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(width), strings.SplitN(ex, " (", 2)[0], dur(el), fmt.Sprint(rows)})
	}
	return t, nil
}

// T6 — TYPE 2 existential early exit (§4.5): selection-only variables stop
// at the first witness; forcing full enumeration through an aggregate
// costs proportionally more.
func T6(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T6",
		Title:  "Query tree: TYPE 2 existential early exit vs full enumeration",
		Header: []string{"form", "time/query", "rows"},
		Notes:  "claim (§4.5): selection-only variables are quantified \"for some\", so iteration\nstops at the first satisfying instance.",
	}
	db, err := BuildUniversity(sim.Config{}, w)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// Every enrolled student satisfies the predicate, so the existential
	// form stops at each course's first student while the aggregate form
	// must enumerate the whole roster.
	forms := []struct{ name, q string }{
		{"existential (TYPE 2)", `From course Retrieve title Where soc-sec-no of students-enrolled >= 200000000.`},
		{"full enumeration (aggregate)", `From course Retrieve title Where min(soc-sec-no of students-enrolled) >= 200000000.`},
	}
	for _, f := range forms {
		el, _, rows, err := timeQuery(db, f.q, reps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f.name, dur(el), fmt.Sprint(rows)})
	}
	return t, nil
}

// T7 — transitive closure (§4.7) over prerequisite chains of growing
// depth.
func T7(reps int) (*Table, error) {
	t := &Table{
		ID:     "T7",
		Title:  "Transitive closure over prerequisite chains",
		Header: []string{"chain length", "closure size", "time/query"},
		Notes:  "claim (§4.7): transitive closure works over any cyclic chain of EVAs; cost\ngrows with the closure, not the class.",
	}
	for _, n := range []int{8, 32, 128, 512} {
		db, err := BuildPrereqChain(sim.Config{}, n)
		if err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`From course Retrieve count distinct (transitive(prerequisites)) Where course-no = %d.`, n)
		r, err := db.Query(q)
		if err != nil {
			db.Close()
			return nil, err
		}
		size := r.Rows()[0][0].String()
		el, _, _, err := timeQuery(db, q, reps)
		if err != nil {
			db.Close()
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), size, dur(el)})
		db.Close()
	}
	return t, nil
}

// T8 — integrity enforcement overhead (§3.3): updates with the paper's
// VERIFY assertions vs the same schema without them.
func T8(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T8",
		Title:  "VERIFY enforcement: trigger detection + targeted re-check overhead",
		Header: []string{"schema", "operation", "time/stmt"},
		Notes:  "claim (§3.3): constraints are \"handled by a trigger detection / query\nenhancement mechanism that works efficiently for a subset of constraints\" —\nonly affected entities are re-verified.",
	}
	plain := stripVerifies()
	for _, env := range []struct{ name, ddl string }{
		{"with verifies", ""},
		{"without verifies", plain},
	} {
		var db *sim.Database
		var err error
		if env.ddl == "" {
			db, err = BuildUniversity(sim.Config{}, w)
		} else {
			db, err = sim.Open("", sim.Config{})
			if err == nil {
				if err = db.DefineSchema(env.ddl); err == nil {
					err = Populate(db, w)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", env.name, err)
		}
		ops := []struct{ name, stmt string }{
			{"modify salary", `Modify instructor (salary := salary + 1) Where employee-nbr = 1005.`},
			{"modify course credits", `Modify course (credits := 14) Where course-no = 3.`},
		}
		for _, op := range ops {
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := db.Exec(op.stmt); err != nil {
					db.Close()
					return nil, fmt.Errorf("%s: %w", op.name, err)
				}
			}
			el := time.Since(start) / time.Duration(reps)
			t.Rows = append(t.Rows, []string{env.name, op.name, dur(el)})
		}
		db.Close()
	}
	return t, nil
}

// stripVerifies removes the Verify declarations from the university DDL.
func stripVerifies() string {
	src := universityDDL()
	var out []string
	skip := false
	for _, line := range strings.Split(src, "\n") {
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
