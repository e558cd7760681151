package bench

import (
	"fmt"
	"strings"

	"sim"
	"sim/internal/adds"
	"sim/internal/university"
)

func universityDDL() string { return university.DDL }

// summaryReader returns a lookup of the "key: value" lines of the
// database's schema summary; a missing key reads as "?".
func summaryReader(db *sim.Database) func(key string) string {
	sum := db.SchemaSummary()
	return func(key string) string {
		for _, line := range strings.Split(sum, "\n") {
			if strings.HasPrefix(line, key) {
				return strings.TrimSpace(strings.TrimPrefix(line, key+":"))
			}
		}
		return "?"
	}
}

// Fig2 reproduces Figure 2: the UNIVERSITY schema compiles and its catalog
// shape matches the paper's drawing.
func Fig2() (*Table, error) {
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.DefineSchema(university.DDL); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "FIG2",
		Title:  "Figure 2 / §7: UNIVERSITY schema catalog shape",
		Header: []string{"measure", "paper", "measured"},
	}
	read := summaryReader(db)
	t.Rows = [][]string{
		{"base classes (PERSON, COURSE, DEPARTMENT)", "3", read("base classes")},
		{"subclasses (STUDENT, INSTRUCTOR, TEACHING-ASSISTANT)", "3", read("subclasses")},
		{"EVA-inverse pairs", "8", read("EVA-inverse pairs")},
		{"max generalization depth", "2", read("max generalization depth")},
	}
	return t, nil
}

// ADDS reproduces §6's data-dictionary statistics.
func ADDS() (*Table, error) {
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.DefineSchema(adds.DDL()); err != nil {
		return nil, err
	}
	read := summaryReader(db)
	return &Table{
		ID:     "ADDS",
		Title:  "§6: ADDS data dictionary scale (synthetic schema at the published shape)",
		Header: []string{"measure", "paper", "measured"},
		Rows: [][]string{
			{"base classes", fmt.Sprint(adds.BaseClasses), read("base classes")},
			{"subclasses", fmt.Sprint(adds.Subclasses), read("subclasses")},
			{"EVA-inverse pairs", fmt.Sprint(adds.EVAPairs), read("EVA-inverse pairs")},
			{"DVAs", fmt.Sprint(adds.DVAs), read("DVAs")},
			{"max generalization depth", fmt.Sprint(adds.MaxDepth), read("max generalization depth")},
		},
	}, nil
}

// DML runs the seven worked examples of §4.9 against a small population
// and reports each outcome.
func DML() (*Table, error) {
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.DefineSchema(university.DDL); err != nil {
		return nil, err
	}
	setup := []string{
		`Insert department (dept-nbr := 100, name := "Physics").`,
		`Insert department (dept-nbr := 300, name := "CS").`,
		`Insert course (course-no := 101, title := "Algebra I", credits := 12).`,
		`Insert course (course-no := 102, title := "Calculus I", credits := 5,
		   prerequisites := course with (title = "Algebra I")).`,
		`Insert course (course-no := 999, title := "Quantum Chromodynamics", credits := 5,
		   prerequisites := course with (title = "Calculus I")).`,
		`Insert instructor (name := "Joe Bloke", soc-sec-no := 1, employee-nbr := 1729,
		   salary := 50000, birthdate := "1950-01-01",
		   assigned-department := department with (name = "Physics"),
		   courses-taught := course with (title = "Quantum Chromodynamics")).`,
		`Insert instructor (name := "Young Prof", soc-sec-no := 3, employee-nbr := 1800,
		   salary := 40000, birthdate := "1990-01-01",
		   assigned-department := department with (name = "Physics")).`,
		`Insert student (name := "Mary Major", soc-sec-no := 2, birthdate := "1970-01-01",
		   advisor := instructor with (name = "Joe Bloke"),
		   major-department := department with (name = "Physics"),
		   courses-enrolled := course with (title = "Algebra I")).`,
		`Insert student (name := "Sam Smith", soc-sec-no := 4, birthdate := "1940-01-01",
		   advisor := instructor with (name = "Joe Bloke"),
		   major-department := department with (name = "CS"),
		   courses-enrolled := course with (title = "Algebra I")).`,
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			return nil, err
		}
	}
	t := &Table{
		ID:     "EX1–EX7",
		Title:  "§4.9 worked DML examples",
		Header: []string{"example", "kind", "outcome"},
	}
	steps := []struct {
		name, stmt string
		isQuery    bool
	}{
		{"EX1 insert + enroll", `Insert student(name := "John Doe", soc-sec-no := 456887766, courses-enrolled := course with (title = "Algebra I")).`, false},
		{"EX2 role extension", `Insert instructor From person Where name = "John Doe" (employee-nbr := 1801).`, false},
		{"EX3 exclude + advisor", `Modify student (courses-enrolled := exclude courses-enrolled with (title = "Algebra I"), advisor := instructor with (name = "Joe Bloke")) Where name of student = "John Doe".`, false},
		{"EX4 conditional raise", `Modify instructor (salary := 1.1 * salary) Where count(courses-taught) of instructor > 0 and assigned-department neq some(major-department of advisees).`, false},
		{"EX5 transitive count", `From course Retrieve count distinct (transitive(prerequisites)) Where title = "Quantum Chromodynamics".`, true},
		{"EX6 advising across depts", `Retrieve name of instructor, title of courses-taught Where name of major-department of advisees = "Physics".`, true},
		{"EX7 multi-perspective", `From student, instructor Retrieve name of student, name of Instructor Where birthdate of student < birthdate of instructor and advisor of student NEQ instructor and not instructor isa teaching-assistant.`, true},
	}
	for _, s := range steps {
		if s.isQuery {
			r, err := db.Query(s.stmt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			t.Rows = append(t.Rows, []string{s.name, "retrieve", fmt.Sprintf("%d row(s)", r.NumRows())})
			continue
		}
		n, err := db.Exec(s.stmt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		t.Rows = append(t.Rows, []string{s.name, "update", fmt.Sprintf("%d entity(ies)", n)})
	}
	return t, nil
}
