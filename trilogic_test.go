package sim

import (
	"testing"

	"sim/internal/university"
)

// TestTriLogicSerialParallelEquality runs every tri-logic query serially
// and on the partitioned parallel path (the student domain is grown past
// the parallel threshold) and requires byte-identical formatted results
// (or identical errors). The compiled-versus-oracle comparison of the same
// set lives in internal/exec's differential test.
func TestTriLogicSerialParallelEquality(t *testing.T) {
	serial := universityDB(t, Config{Workers: 1})
	parallel := universityDB(t, Config{Workers: 4})
	bulkStudents(t, serial, 64)
	bulkStudents(t, parallel, 64)
	for _, q := range university.TriLogicQueries {
		ref, refErr := serial.Query(q)
		got, err := parallel.Query(q)
		if (err == nil) != (refErr == nil) {
			t.Errorf("error mismatch for %q: serial err=%v, parallel err=%v", q, refErr, err)
			continue
		}
		if refErr != nil {
			if err.Error() != refErr.Error() {
				t.Errorf("%q: error text %q, want %q", q, err, refErr)
			}
			continue
		}
		if got.Format() != ref.Format() {
			t.Errorf("%q:\nparallel:\n%s\nserial:\n%s", q, got.Format(), ref.Format())
		}
		if got.FormatStructured() != ref.FormatStructured() {
			t.Errorf("%q: structured output diverges", q)
		}
	}
	if parallel.Stats().Exec.Parallel == 0 {
		t.Fatal("no query took the parallel path")
	}
}

// TestTriLogicPinned pins absolute answers for the trickiest cases so a
// bug shared by both evaluators cannot hide behind the equality oracle.
func TestTriLogicPinned(t *testing.T) {
	db := universityDB(t, Config{})
	// Unknown or True = True: all three instructors have salary > 40000,
	// so the NULL bonuses cannot exclude anyone.
	r := mustQuery(t, db, `From instructor Retrieve name Where bonus > 500 or salary > 44000 Order By name.`)
	expectRows(t, r, [][]string{{"Ann Smith"}, {"Bob Stone"}, {"Joe Bloke"}})
	// Unknown and True = Unknown: only Joe Bloke's bonus is non-NULL.
	r = mustQuery(t, db, `From instructor Retrieve name Where bonus > 500 and salary > 44000 Order By name.`)
	expectRows(t, r, [][]string{{"Joe Bloke"}})
	// not Unknown = Unknown: negation cannot resurrect a NULL row.
	r = mustQuery(t, db, `From instructor Retrieve name Where not (bonus > 500) Order By name.`)
	expectRows(t, r, [][]string{})
	// Aggregates skip NULLs: Tom's advisor (Ann) has a NULL bonus so his
	// multiset is all-NULL, and NoAdv Kid's advisor set is empty — both
	// sum to NULL (rendered ?) rather than zero. Tina Aide is a student
	// by subtyping; her advisor Ann also has a NULL bonus.
	r = mustQuery(t, db, `From student Retrieve name, sum(bonus of advisor) Order By name.`)
	expectRows(t, r, [][]string{
		{"John Doe", "1000"}, {"Mary Major", "1000"}, {"NoAdv Kid", "?"},
		{"Tina Aide", "?"}, {"Tom Thumb", "?"},
	})
}
