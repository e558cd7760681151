package university

// Fixture is a small population of the schema shared by the engine's
// tests: three departments, five courses with a prerequisite chain, three
// instructors and a teaching assistant, and four students. Course credits
// are chosen so every enrolled student satisfies verify v1 (sum of
// credits >= 12); NULL bonuses and the advisor-less student exercise
// three-valued logic.
var Fixture = []string{
	`Insert department (dept-nbr := 100, name := "Physics").`,
	`Insert department (dept-nbr := 200, name := "Math").`,
	`Insert department (dept-nbr := 300, name := "CS").`,

	`Insert course (course-no := 101, title := "Algebra I", credits := 12).`,
	`Insert course (course-no := 102, title := "Calculus I", credits := 5,
	   prerequisites := course with (title = "Algebra I")).`,
	`Insert course (course-no := 201, title := "Mechanics", credits := 5,
	   prerequisites := course with (title = "Calculus I")).`,
	`Insert course (course-no := 999, title := "Quantum Chromodynamics", credits := 5,
	   prerequisites := course with (title = "Mechanics"),
	   prerequisites := include course with (title = "Calculus I")).`,
	`Insert course (course-no := 301, title := "Databases", credits := 5).`,

	`Insert instructor (name := "Joe Bloke", soc-sec-no := 100000001,
	   birthdate := "1950-01-01", employee-nbr := 1729, salary := 50000, bonus := 1000,
	   assigned-department := department with (name = "Physics"),
	   courses-taught := course with (title = "Mechanics"),
	   courses-taught := include course with (title = "Quantum Chromodynamics")).`,
	`Insert instructor (name := "Ann Smith", soc-sec-no := 100000002,
	   birthdate := "1945-05-05", employee-nbr := 1730, salary := 60000,
	   assigned-department := department with (name = "Math"),
	   courses-taught := course with (title = "Algebra I"),
	   courses-taught := include course with (title = "Calculus I")).`,
	`Insert instructor (name := "Bob Stone", soc-sec-no := 100000003,
	   birthdate := "1980-01-01", employee-nbr := 1731, salary := 45000,
	   assigned-department := department with (name = "CS"),
	   courses-taught := course with (title = "Databases")).`,

	`Insert teaching-assistant (name := "Tina Aide", soc-sec-no := 100000004,
	   birthdate := "1965-06-06", student-nbr := 1600, employee-nbr := 1750,
	   salary := 20000, teaching-load := 5,
	   advisor := instructor with (name = "Ann Smith"),
	   major-department := department with (name = "CS"),
	   courses-enrolled := course with (title = "Algebra I"),
	   courses-taught := course with (title = "Databases")).`,

	`Insert student (name := "John Doe", soc-sec-no := 456887766,
	   birthdate := "1960-02-02", student-nbr := 1500,
	   advisor := instructor with (name = "Joe Bloke"),
	   major-department := department with (name = "CS"),
	   courses-enrolled := course with (title = "Algebra I")).`,
	`Insert student (name := "Mary Major", soc-sec-no := 456887767,
	   birthdate := "1970-03-03", student-nbr := 1501,
	   advisor := instructor with (name = "Joe Bloke"),
	   major-department := department with (name = "Physics"),
	   courses-enrolled := course with (title = "Algebra I"),
	   courses-enrolled := include course with (title = "Calculus I"),
	   courses-enrolled := include course with (title = "Mechanics")).`,
	`Insert student (name := "Tom Thumb", soc-sec-no := 456887768,
	   birthdate := "1990-04-04", student-nbr := 1502,
	   advisor := instructor with (name = "Ann Smith"),
	   major-department := department with (name = "Math"),
	   courses-enrolled := course with (title = "Algebra I"),
	   courses-enrolled := include course with (title = "Calculus I")).`,
	`Insert student (name := "NoAdv Kid", soc-sec-no := 456887769,
	   birthdate := "2000-12-12", student-nbr := 1503,
	   major-department := department with (name = "Math")).`,
}

// TriLogicQueries are three-valued-logic edge cases over Fixture: NULL
// flowing through comparisons, connectives and quantifiers, aggregates
// over empty and all-NULL multisets, and the short-circuit behavior of
// and/or under Kleene logic (§4.3: "a three-valued logic (True, False,
// Unknown) is used"). The compiled programs and the test oracle must
// agree exactly — on rows, on row order, and on errors.
var TriLogicQueries = []string{
	// NULL in arithmetic and comparisons: bonus is NULL for Ann Smith
	// and Bob Stone, so salary + bonus is NULL and every comparison
	// against it is Unknown (row filtered out, not an error).
	`From instructor Retrieve name, salary + bonus Order By name.`,
	`From instructor Retrieve name Where salary + bonus > 0 Order By name.`,
	`From instructor Retrieve name Where bonus = 1000 Order By name.`,
	`From instructor Retrieve name Where bonus <> 1000 Order By name.`,

	// Kleene connectives: Unknown or True = True, Unknown and False =
	// False, not Unknown = Unknown. Rows qualify only on True.
	`From instructor Retrieve name Where bonus > 500 or salary > 55000 Order By name.`,
	`From instructor Retrieve name Where bonus > 500 and salary > 40000 Order By name.`,
	`From instructor Retrieve name Where not (bonus > 500) Order By name.`,
	`From instructor Retrieve name Where not (bonus > 500) or salary < 50000 Order By name.`,

	// Short-circuiting must not change results: the right operand's
	// truth value is irrelevant once the left decides.
	`From instructor Retrieve name Where salary > 0 or bonus > 999999 Order By name.`,
	`From instructor Retrieve name Where salary < 0 and bonus > 0 Order By name.`,

	// NULL through quantifiers: NoAdv Kid has no advisor (EVA NULL), and
	// quantified comparisons against empty/NULL target sets.
	`From student Retrieve name Where name of advisor = "Joe Bloke" Order By name.`,
	`From instructor Retrieve name Where some(advisees) Order By name.`,
	`From instructor Retrieve name Where no(advisees) Order By name.`,
	`From student Retrieve name Where major-department = some(assigned-department of advisor) Order By name.`,
	`From student Retrieve name Where major-department = all(assigned-department of advisor) Order By name.`,
	`From student Retrieve name Where major-department = no(assigned-department of advisor) Order By name.`,

	// Aggregates over empty multisets (count = 0, avg/sum/min/max NULL)
	// and all-NULL multisets (NULLs are not aggregated; Math's only
	// instructor has a NULL bonus).
	`From student Retrieve name, count(courses-enrolled) Order By name.`,
	`From department Retrieve name, avg(bonus of instructor) Order By name.`,
	`From department Retrieve name, sum(bonus of instructor) Order By name.`,
	`From department Retrieve name, max(bonus of instructor) Order By name.`,
	`From instructor Retrieve name, count(advisees) Order By name.`,
	`From student Retrieve name, sum(bonus of advisor) Order By name.`,
	`From department Retrieve avg(salary of instructor) Where dept-nbr = 100.`,

	// DISTINCT and structured output ride the same row pipeline.
	`From course Retrieve Table Distinct credits.`,
	`Retrieve Structure Name, Title of Courses-Enrolled of Student Where Student-Nbr = 1501.`,

	// Errors must agree too: a type error, and ORDER BY inside
	// structured output.
	`From instructor Retrieve name, salary * "x".`,
	`Retrieve Structure Name, Title of Courses-Enrolled of Student Order By Name.`,
}
