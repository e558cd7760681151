package university

import "fmt"

// DB is the part of a database the builders below drive; *sim.Database
// satisfies it. The builders take an open, empty database rather than
// opening one themselves because the engine's own packages test against
// this package, so it cannot import the engine.
type DB interface {
	DefineSchema(ddl string) error
	Exec(dml string) (int, error)
}

// Workload sizes a university population.
type Workload struct {
	Departments int
	Instructors int
	Students    int
	Courses     int
	EnrollPer   int // courses per student
	AdvisePer   int // advisees per instructor (≤ 10 per the schema)
}

// DefaultWorkload is the population the paper-claim tests measure.
var DefaultWorkload = Workload{
	Departments: 5,
	Instructors: 40,
	Students:    400,
	Courses:     80,
	EnrollPer:   3,
	AdvisePer:   8,
}

// Scale multiplies the populations.
func (w Workload) Scale(f int) Workload {
	w.Instructors *= f
	w.Students *= f
	w.Courses *= f
	return w
}

// BuildUniversity defines the schema in an empty database and loads the
// workload. Course credits are 15 so verify v1 is satisfied by a single
// enrollment; salaries satisfy v2.
func BuildUniversity(db DB, w Workload) error {
	if err := db.DefineSchema(DDL); err != nil {
		return err
	}
	return Populate(db, w)
}

// Populate loads the workload into an empty university database.
func Populate(db DB, w Workload) error {
	for d := 0; d < w.Departments; d++ {
		stmt := fmt.Sprintf(`Insert department (dept-nbr := %d, name := "Dept %03d").`, 100+d, d)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
	}
	for c := 0; c < w.Courses; c++ {
		stmt := fmt.Sprintf(`Insert course (course-no := %d, title := "Course %04d", credits := 15).`, c+1, c)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
	}
	for i := 0; i < w.Instructors; i++ {
		stmt := fmt.Sprintf(`Insert instructor (name := "Instructor %04d", soc-sec-no := %d,
		  employee-nbr := %d, salary := %d, birthdate := "19%02d-01-01",
		  assigned-department := department with (dept-nbr = %d)).`,
			i, 100000000+i, 1001+i, 30000+i, 40+i%40, 100+i%w.Departments)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
	}
	for s := 0; s < w.Students; s++ {
		adv := ""
		if w.AdvisePer > 0 && s < w.AdvisePer*w.Instructors {
			// Blocks of AdvisePer students per instructor; the schema caps
			// advisees at 10, so later students go unadvised.
			instructor := s / w.AdvisePer
			adv = fmt.Sprintf("advisor := instructor with (employee-nbr = %d),", 1001+instructor)
		}
		stmt := fmt.Sprintf(`Insert student (name := "Student %05d", soc-sec-no := %d,
		  student-nbr := %d, birthdate := "19%02d-06-15", %s
		  major-department := department with (dept-nbr = %d)).`,
			s, 200000000+s, 1001+s%38000, 50+s%50, adv, 100+s%w.Departments)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
		for e := 0; e < w.EnrollPer; e++ {
			course := (s*7 + e*13) % w.Courses
			stmt := fmt.Sprintf(`Modify student (courses-enrolled := include course with (course-no = %d))
			  Where soc-sec-no = %d.`, course+1, 200000000+s)
			if _, err := db.Exec(stmt); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildPrereqChain defines the schema in an empty database and loads a
// linear prerequisite chain of length n: course i+1 requires course i.
func BuildPrereqChain(db DB, n int) error {
	if err := db.DefineSchema(DDL); err != nil {
		return err
	}
	for c := 0; c < n; c++ {
		stmt := fmt.Sprintf(`Insert course (course-no := %d, title := "Chain %05d", credits := 15).`, c+1, c)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
		if c > 0 {
			stmt = fmt.Sprintf(`Modify course (prerequisites := include course with (course-no = %d)) Where course-no = %d.`, c, c+1)
			if _, err := db.Exec(stmt); err != nil {
				return err
			}
		}
	}
	return nil
}

// notesDDL is a small schema exercising multi-valued DVA mappings: tags
// has the MAX option, so it embeds in its owner's record by default.
const notesDDL = `
Class Note (
  note-no: integer unique required;
  body: string[40];
  tags: string[20] mv (max 64) );
`

// BuildNotes defines notesDDL in an empty database and loads n notes
// with k tags each.
func BuildNotes(db DB, n, k int) error {
	if err := db.DefineSchema(notesDDL); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		stmt := fmt.Sprintf(`Insert note (note-no := %d, body := "note body %06d").`, i+1, i)
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
		for t := 0; t < k; t++ {
			stmt := fmt.Sprintf(`Modify note (tags := include "tag-%03d-%02d") Where note-no = %d.`, i%100, t, i+1)
			if _, err := db.Exec(stmt); err != nil {
				return err
			}
		}
	}
	return nil
}
