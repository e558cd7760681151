package sim

import "testing"

// TestTriLogicPinned pins absolute answers for the trickiest cases so a
// bug shared by the compiled programs and the tree-walking oracle of
// internal/exec's differential test cannot hide behind their equality.
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
