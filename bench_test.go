package sim_test

// One testing.B benchmark per experiment of EXPERIMENTS.md: the timed form
// of the T1–T8 claims whose shapes TestPaperClaims asserts on counters.

import (
	"fmt"
	"testing"

	"sim"
	"sim/internal/luc"
	"sim/internal/university"
)

var benchWorkload = university.Workload{
	Departments: 4,
	Instructors: 20,
	Students:    200,
	Courses:     40,
	EnrollPer:   3,
	AdvisePer:   8,
}

func buildBench(b *testing.B, cfg sim.Config) *sim.Database {
	b.Helper()
	return openUniversity(b, cfg, benchWorkload)
}

func benchQuery(b *testing.B, db *sim.Database, q string) {
	b.Helper()
	if _, err := db.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// T1 — EVA mapping ablation (§5.2).
func BenchmarkEVAMappingCESForward(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVACommon}}})
	benchQuery(b, db, `From student Retrieve name of advisor.`)
}

func BenchmarkEVAMappingFKForward(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVAForeignKey}}})
	benchQuery(b, db, `From student Retrieve name of advisor.`)
}

func BenchmarkEVAMappingCESInverse(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVACommon}}})
	benchQuery(b, db, `From instructor Retrieve count(advisees).`)
}

func BenchmarkEVAMappingFKInverse(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{EVA: map[string]luc.EVAStrategy{"student.advisor": luc.EVAForeignKey}}})
	benchQuery(b, db, `From instructor Retrieve count(advisees).`)
}

// T2 — hierarchy mapping ablation (§5.2).
func BenchmarkHierarchyMappingSingleInherited(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From student Retrieve name, birthdate, student-nbr.`)
}

func BenchmarkHierarchyMappingSplitInherited(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{Hierarchy: map[string]luc.HierarchyStrategy{"person": luc.HierarchySplit}}})
	benchQuery(b, db, `From student Retrieve name, birthdate, student-nbr.`)
}

func BenchmarkHierarchyMappingSingleSubclassScan(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From instructor Retrieve employee-nbr.`)
}

func BenchmarkHierarchyMappingSplitSubclassScan(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{Hierarchy: map[string]luc.HierarchyStrategy{"person": luc.HierarchySplit}}})
	benchQuery(b, db, `From instructor Retrieve employee-nbr.`)
}

// T3 — MV DVA mapping ablation (§5.2).
func benchNotes(b *testing.B, strat luc.MVDVAStrategy, q string) {
	b.Helper()
	db := openLoaded(b, sim.Config{Mapping: luc.Config{MVDVA: map[string]luc.MVDVAStrategy{"note.tags": strat}}},
		func(db university.DB) error { return university.BuildNotes(db, 100, 16) })
	benchQuery(b, db, q)
}

func BenchmarkMVDVAEmbeddedRead(b *testing.B) {
	benchNotes(b, luc.MVEmbedded, `From note Retrieve note-no, tags.`)
}

func BenchmarkMVDVASeparateRead(b *testing.B) {
	benchNotes(b, luc.MVSeparate, `From note Retrieve note-no, tags.`)
}

func BenchmarkMVDVAEmbeddedOwnerScan(b *testing.B) {
	benchNotes(b, luc.MVEmbedded, `From note Retrieve body.`)
}

func BenchmarkMVDVASeparateOwnerScan(b *testing.B) {
	benchNotes(b, luc.MVSeparate, `From note Retrieve body.`)
}

// T4/T5 — optimizer strategies (§5.1).
func BenchmarkOptimizerPivot(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{Indexes: []string{"person.name", "course.title"}}})
	benchQuery(b, db, `From student Retrieve soc-sec-no Where name of advisor = "Instructor 0003".`)
}

func BenchmarkOptimizerForcedScan(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From student Retrieve soc-sec-no Where name of advisor = "Instructor 0003".`)
}

func BenchmarkOptimizerUniqueLookup(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From person Retrieve name Where soc-sec-no = 200000007.`)
}

func BenchmarkOrderingPivotWithSort(b *testing.B) {
	db := buildBench(b, sim.Config{Mapping: luc.Config{Indexes: []string{"course.title"}}})
	benchQuery(b, db, `From student Retrieve soc-sec-no Where title of courses-enrolled = "Course 0011".`)
}

// T6 — TYPE 2 early exit (§4.5).
func BenchmarkType2Existential(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From course Retrieve title Where soc-sec-no of students-enrolled >= 200000000.`)
}

func BenchmarkType2FullEnumeration(b *testing.B) {
	db := buildBench(b, sim.Config{})
	benchQuery(b, db, `From course Retrieve title Where min(soc-sec-no of students-enrolled) >= 200000000.`)
}

// T7 — transitive closure (§4.7).
func BenchmarkTransitiveClosure(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			db := openLoaded(b, sim.Config{}, func(db university.DB) error { return university.BuildPrereqChain(db, n) })
			benchQuery(b, db, fmt.Sprintf(
				`From course Retrieve count distinct (transitive(prerequisites)) Where course-no = %d.`, n))
		})
	}
}

// T8 — VERIFY enforcement overhead (§3.3).
func BenchmarkVerifyEnforcedModify(b *testing.B) {
	db := buildBench(b, sim.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`Modify instructor (salary := salary + 1) Where employee-nbr = 1005.`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCrossEntityTrigger(b *testing.B) {
	db := buildBench(b, sim.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`Modify course (credits := 14) Where course-no = 3.`); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end statement throughput.
func BenchmarkInsertStudent(b *testing.B) {
	db := buildBench(b, sim.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt := fmt.Sprintf(`Insert student (name := "Bench %09d", soc-sec-no := %d).`, i, 300000000+i)
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseRetrieve(b *testing.B) {
	db := buildBench(b, sim.Config{})
	_ = db
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(`From student Retrieve name, title of courses-enrolled Where soc-sec-no = 200000001.`); err != nil {
			b.Fatal(err)
		}
	}
}

// The T9/T10 full scan with an EVA walk per row. A per-row cost that
// grows with the root domain's size (a recycled scan-sized buffer cleared
// through its capacity in the inner loop, say) shows up here as ns/op
// growing faster than the rows.
func BenchmarkFullScanJoin(b *testing.B) {
	w := benchWorkload
	w.Students = 1000
	db := openUniversity(b, sim.Config{}, w)
	b.ReportAllocs()
	benchQuery(b, db, `From student Retrieve name, name of advisor.`)
}

// Point lookups whose key literal changes on every call: with the plan
// cache keyed by statement shape they all run one compiled program.
func BenchmarkPointReadVaryingLiteral(b *testing.B) {
	w := benchWorkload
	w.Students = 1000 // four times the plan cache's default capacity
	db := openUniversity(b, sim.Config{}, w)
	texts := make([]string, w.Students)
	for s := range texts {
		texts[s] = fmt.Sprintf(`From student Retrieve name, student-nbr Where soc-sec-no = %d.`, 200000000+s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(texts[i*7919%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
