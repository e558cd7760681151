package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sim"
)

// dataset sizes one UNIVERSITY population. Everything the workloads write
// to is split into two partitions by parity (student, instructor, course
// and department index modulo 2), one per writer, so two concurrent
// writers never touch the same entity or the same EVA partner: any
// conflict the engine reports is a bug, not contention.
type dataset struct {
	Name        string
	Students    int
	Instructors int
	Courses     int
	Departments int
	EnrollPer   int
}

// The two datasets are sized against the engine's own caches (1 024-page
// buffer pool, 1 024-record LUC cache): univ-m fits the pool and is 4x the
// LUC cache; univ-l is 3x the pool and 20x the LUC cache.
var (
	univM = dataset{"univ-m", 4000, 400, 400, 20, 4}
	univL = dataset{"univ-l", 20000, 2000, 1000, 20, 4}
)

const (
	partitions = 2
	// chainLen is the length of each linear prerequisite chain.
	chainLen = 20
	// advisedRounds of every ten students get an advisor at load, leaving
	// each instructor four of the schema's MAX 10 advisees free for the
	// register and transfer transactions.
	advisedRounds = 6
	maxAdvisees   = 10
	// markerDept is the department whose name the replicated workload
	// stamps with <seq>@<unix-ns>; no student or instructor refers to it.
	markerDept = 900
)

// scaled divides the populations, for the smoke test.
func (d dataset) scaled(div int) dataset {
	if div <= 1 {
		return d
	}
	d.Students = max(d.Students/div, 40)
	d.Instructors = max(d.Instructors/div, 10)
	d.Courses = max(d.Courses/div, 2*chainLen)
	return d
}

func ssnOfStudent(s int) int    { return 200000000 + s }
func ssnOfInstructor(i int) int { return 100000000 + i }
func empNo(i int) int           { return 1001 + i }
func deptNo(d int) int          { return 100 + d }
func courseNo(c int) int        { return c + 1 }
func studentName(s int) string  { return fmt.Sprintf("Student %06d", s) }
func courseTitle(c int) string  { return fmt.Sprintf("Course %04d", c) }

// credits keeps VERIFY v1 (sum of enrolled credits >= 12) true after any
// single enrollment, because the assertion is checked per statement.
func credits(c int) int { return 12 + c%4 }

// inPartition maps the k-th member of partition p to its global index.
func inPartition(k, p int) int { return k*partitions + p }

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1; the key skew here is 0.99.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// enrollCourses picks n distinct courses of partition p; popularity is
// Zipf(1.1) over the partition's courses, so enrollment predicates span
// about three orders of magnitude in selectivity.
func enrollCourses(r *rand.Rand, z *zipf, p, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		c := inPartition(z.draw(r), p)
		dup := false
		for _, o := range out {
			dup = dup || o == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// advisorAtLoad returns the instructor advising student s after the load,
// or -1. Student and advisor share a partition.
func (d dataset) advisorAtLoad(s int) int {
	p, k := s%partitions, s/partitions
	per := d.Instructors / partitions
	if k/per >= advisedRounds {
		return -1
	}
	return inPartition(k%per, p)
}

// deptAtLoad returns the major department of student s after the load.
func (d dataset) deptAtLoad(s int) int {
	p, k := s%partitions, s/partitions
	return inPartition(k%(d.Departments/partitions), p)
}

func insertStudentStmt(s, advisor, dept int, courses []int) string {
	stmt := fmt.Sprintf(`Insert student (name := "%s", soc-sec-no := %d, student-nbr := %d, birthdate := "19%02d-06-15"`,
		studentName(s), ssnOfStudent(s), 1001+s%38000, 50+s%50)
	if advisor >= 0 {
		stmt += fmt.Sprintf(`, advisor := instructor with (employee-nbr = %d)`, empNo(advisor))
	}
	stmt += fmt.Sprintf(`, major-department := department with (dept-nbr = %d)`, deptNo(dept))
	for i, c := range courses {
		inc := ""
		if i > 0 {
			inc = "include "
		}
		stmt += fmt.Sprintf(`, courses-enrolled := %scourse with (course-no = %d)`, inc, courseNo(c))
	}
	return stmt + ")."
}

// statements generates the load script from the seed: departments,
// courses in prerequisite chains, instructors, then students with their
// advisor, major and enrollments in one Insert each.
func (d dataset) statements(seed int64, emit func(string) error) error {
	r := rand.New(rand.NewSource(seed))
	z := newZipf(d.Courses/partitions, 1.1)
	for i := 0; i < d.Departments; i++ {
		if err := emit(fmt.Sprintf(`Insert department (dept-nbr := %d, name := "Dept %03d").`, deptNo(i), i)); err != nil {
			return err
		}
	}
	if err := emit(fmt.Sprintf(`Insert department (dept-nbr := %d, name := "0@0").`, markerDept)); err != nil {
		return err
	}
	for c := 0; c < d.Courses; c++ {
		pre := ""
		if c%chainLen != 0 {
			pre = fmt.Sprintf(`, prerequisites := course with (course-no = %d)`, courseNo(c-1))
		}
		if err := emit(fmt.Sprintf(`Insert course (course-no := %d, title := "%s", credits := %d%s).`,
			courseNo(c), courseTitle(c), credits(c), pre)); err != nil {
			return err
		}
	}
	for i := 0; i < d.Instructors; i++ {
		if err := emit(fmt.Sprintf(`Insert instructor (name := "Instructor %05d", soc-sec-no := %d, employee-nbr := %d, salary := %d, birthdate := "19%02d-01-01", assigned-department := department with (dept-nbr = %d), courses-taught := course with (course-no = %d)).`,
			i, ssnOfInstructor(i), empNo(i), 30000+i, 40+i%40, deptNo(i%d.Departments), courseNo(i%d.Courses))); err != nil {
			return err
		}
	}
	for s := 0; s < d.Students; s++ {
		courses := enrollCourses(r, z, s%partitions, d.EnrollPer)
		if err := emit(insertStudentStmt(s, d.advisorAtLoad(s), d.deptAtLoad(s), courses)); err != nil {
			return err
		}
	}
	return nil
}

// loadBatch is the number of statements per load transaction: large
// enough that set-up is bound by the engine, not by one fsync per row.
const loadBatch = 500

// load builds the dataset in db through the public API and returns the
// bytes of DML text that built it (the base of space_amp).
func (d dataset) load(db *sim.Database, seed int64) (dmlBytes int64, err error) {
	ctx := context.Background()
	var tx *sim.Tx
	n := 0
	commit := func() error {
		if tx == nil {
			return nil
		}
		err := tx.Commit()
		tx, n = nil, 0
		return err
	}
	err = d.statements(seed, func(stmt string) error {
		if tx == nil {
			if tx, err = db.Begin(ctx); err != nil {
				return err
			}
		}
		if _, err := tx.Exec(ctx, stmt); err != nil {
			return fmt.Errorf("load %q: %w", stmt, err)
		}
		dmlBytes += int64(len(stmt))
		if n++; n >= loadBatch {
			return commit()
		}
		return nil
	})
	if err != nil {
		if tx != nil {
			tx.Rollback()
		}
		return 0, err
	}
	return dmlBytes, commit()
}
