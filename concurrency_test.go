package sim

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// bulkStudents inserts n extra students, growing the Student root domain
// past the fixture's handful.
func bulkStudents(t *testing.T, db *Database, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf(
			`Insert student (name := "Bulk %03d", soc-sec-no := %d,
			   birthdate := "1990-01-01", student-nbr := %d,
			   major-department := department with (name = "CS")).`,
			i, 500000000+i, 2000+i))
	}
}

// TestQueryConcurrent hammers Query from 8 goroutines. On the seed this
// races on the buffer pool and the mapper caches (caught by -race); with
// the sharded pool and locked caches every goroutine must see the same
// answer one query alone gives.
func TestQueryConcurrent(t *testing.T) {
	db := universityDB(t, Config{})
	bulkStudents(t, db, 64)
	queries := []string{
		`From Student Retrieve Name Order By Name.`,
		`From Student Retrieve Name, Name of Major-Department Order By Name.`,
		`From Instructor Retrieve Name Where salary > 40000 Order By Name.`,
		`From Course Retrieve Title, Credits Order By Title.`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = mustQuery(t, db, q).Format()
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				r, err := db.Query(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if got := r.Format(); got != want[qi] {
					errs <- fmt.Errorf("goroutine %d query %d: result diverged from serial answer", g, qi)
					return
				}
				// Stats must be safe to read while queries run.
				_ = db.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSoak mixes Query, Exec and Checkpoint from concurrent
// goroutines and verifies the database still satisfies every VERIFY
// assertion afterwards. With SIM_SOAK_TRACE set the readers run through
// QueryTrace instead, soaking the span-collection path (CI runs both).
func TestConcurrentSoak(t *testing.T) {
	db := universityDB(t, Config{})
	bulkStudents(t, db, 40)

	traced := os.Getenv("SIM_SOAK_TRACE") != ""
	query := func(q string) error {
		if traced {
			_, _, err := db.QueryTrace(q)
			return err
		}
		_, err := db.Query(q)
		return err
	}

	const readers = 4
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := query(`From Student Retrieve Name, Name of Major-Department.`); err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			nbr := 3000 + i
			ins := fmt.Sprintf(
				`Insert student (name := "Soak %d", soc-sec-no := %d,
				   birthdate := "1991-01-01", student-nbr := %d,
				   major-department := department with (name = "Math")).`,
				i, 600000000+i, nbr)
			if _, err := db.Exec(ins); err != nil {
				errs <- fmt.Errorf("writer insert %d: %w", i, err)
				return
			}
			if i%2 == 0 {
				del := fmt.Sprintf(`Delete student Where student-nbr = %d.`, nbr)
				if _, err := db.Exec(del); err != nil {
					errs <- fmt.Errorf("writer delete %d: %w", i, err)
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if err := db.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity after soak: %v", err)
	}
}

// TestPlanCache covers hit accounting, visibility of data changes through
// a cached plan, and invalidation on schema change.
func TestPlanCache(t *testing.T) {
	db := universityDB(t, Config{})
	q := `From Student Retrieve Name Order By Name.`

	base := db.Stats().Plans
	mustQuery(t, db, q)
	after1 := db.Stats().Plans
	if after1.Misses != base.Misses+1 {
		t.Fatalf("first query: misses = %d, want %d", after1.Misses, base.Misses+1)
	}
	mustQuery(t, db, q)
	after2 := db.Stats().Plans
	if after2.Hits != after1.Hits+1 {
		t.Fatalf("second query: hits = %d, want %d", after2.Hits, after1.Hits+1)
	}

	// A cached plan must see data changes made after it was cached.
	before := mustQuery(t, db, q).NumRows()
	mustExec(t, db, `Insert student (name := "Cache Probe", soc-sec-no := 700000001,
	   birthdate := "1992-01-01", student-nbr := 3999,
	   major-department := department with (name = "CS")).`)
	if got := mustQuery(t, db, q).NumRows(); got != before+1 {
		t.Fatalf("cached plan after insert: %d rows, want %d", got, before+1)
	}

	// Schema changes invalidate every cached plan.
	if err := db.DefineSchema(`Class Building ( bldg-nbr: integer (1..999) unique required; name: string[30] );`); err != nil {
		t.Fatalf("DefineSchema: %v", err)
	}
	if got := db.Stats().Plans.Entries; got != 0 {
		t.Fatalf("plan cache entries after DefineSchema = %d, want 0", got)
	}
	mustQuery(t, db, q) // replans against the new catalog
	mustExec(t, db, `Insert building (bldg-nbr := 1, name := "Main Hall").`)
	r := mustQuery(t, db, `From Building Retrieve Name.`)
	expectRows(t, r, [][]string{{"Main Hall"}})

	// PlanCacheSize < 0 disables caching entirely.
	nocache := universityDB(t, Config{PlanCacheSize: -1})
	mustQuery(t, nocache, q)
	mustQuery(t, nocache, q)
	if s := nocache.Stats().Plans; s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("disabled cache recorded hits=%d entries=%d", s.Hits, s.Entries)
	}
}
