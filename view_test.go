package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/fault"
	"sim/internal/luc"
	"sim/internal/pager"
	"sim/internal/university"
	"sim/internal/value"
)

// Every read outside a writing transaction shares the store's current
// read view: one pin, snapshot mapper and executor per published stamp
// and schema generation. These tests pin the contract that sharing has to
// keep: a read sees every commit, schema change and snapshot install that
// returned before it, and one holder's finish never drops another
// holder's reference.

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// fileUniversity opens the UNIVERSITY fixture in a file-backed database.
func fileUniversity(t *testing.T) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "univ.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range university.Fixture {
		mustExec(t, db, stmt)
	}
	return db
}

// TestPointReadAllocs bounds the allocations of a warmed unique-key
// Retrieve: with the read view shared per published stamp, the statement
// allocates for its shape, parameters and result, not for a snapshot,
// mapper or executor of its own.
func TestPointReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	db := fileUniversity(t)
	var queries []string
	for ssn := 456887766; ssn <= 456887769; ssn++ {
		queries = append(queries, fmt.Sprintf(`From student Retrieve name Where soc-sec-no = %d.`, ssn))
	}
	for _, q := range queries {
		if r := mustQuery(t, db, q); r.NumRows() != 1 {
			t.Fatalf("%s: %d rows, want 1", q, r.NumRows())
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.Query(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 6 {
		t.Fatalf("warmed point read: %.1f allocations per statement, want <= 6", allocs)
	}
}

// TestReadAfterCommitAllocs bounds the allocations of a unique-key
// Retrieve that follows a commit. The commit retires the shared read view,
// so the statement pays for the new view, its attachment, the snapshot
// mapper with its record memo and the executor, besides what a warmed
// read allocates; the commit itself is not counted.
func TestReadAfterCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	db := fileUniversity(t)
	const q = `From student Retrieve name Where soc-sec-no = 456887766.`
	mustQuery(t, db, q)
	const runs = 100
	var ms runtime.MemStats
	var allocs uint64
	for i := 0; i < runs; i++ {
		mustExec(t, db, fmt.Sprintf(`Modify student (name := "Mary %d") Where soc-sec-no = 456887767.`, i))
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if r := mustQuery(t, db, q); r.NumRows() != 1 {
			t.Fatalf("%s: %d rows, want 1", q, r.NumRows())
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
	}
	// Whole allocations per statement, as testing.AllocsPerRun counts them:
	// a collection during the loop empties the sync.Pools, and the
	// refills of one or two such collections stay below one per run.
	if per := allocs / runs; per > 29 {
		t.Fatalf("point read after a commit: %d allocations per statement, want <= 29", per)
	}
}

// TestUpdateAllocs bounds the allocations of a warmed update served from
// the shape cache inside an explicit transaction: its conflict check on
// the transaction's snapshot, the write latch and the execution, which
// binds the statement's literals and runs the cached selections.
func TestUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	ctx := context.Background()
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w := university.Workload{Departments: 4, Instructors: 10, Students: 100, Courses: 30, EnrollPer: 2, AdvisePer: 5}
	if err := university.BuildUniversity(db, w); err != nil {
		t.Fatal(err)
	}
	// A course the student is not enrolled in (Populate enrolls student s
	// in courses (7s + 13e) mod 30, e < 2).
	stmt := func(s int) string {
		return fmt.Sprintf(`Modify student (courses-enrolled := include course with (course-no = %d)) Where soc-sec-no = %d.`,
			(s*7+5)%w.Courses+1, 200000000+s)
	}
	exec := func(s int) uint64 {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if n, err := tx.Exec(ctx, stmt(s)); err != nil || n != 1 {
			t.Fatalf("%s: %d, %v", stmt(s), n, err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	for s := 0; s < 10; s++ {
		exec(s)
	}
	const runs = 100
	var allocs uint64
	for i := 0; i < runs; i++ {
		allocs += exec(i % w.Students)
	}
	if per := allocs / runs; per > 123 {
		t.Fatalf("warmed update in a transaction: %d allocations per statement, want <= 123", per)
	}
}

// TestReadViewBuiltOncePerCommit: the first read after a commit builds
// the new stamp's read view and the next read shares it, so
// sim_read_views_built_total rises by exactly one.
func TestReadViewBuiltOncePerCommit(t *testing.T) {
	db := fileUniversity(t)
	const q = `From student Retrieve name Where soc-sec-no = 456887766.`
	mustQuery(t, db, q)
	before := db.reg.Get("sim_read_views_built_total")
	mustExec(t, db, `Modify student (name := "Mary Minor") Where soc-sec-no = 456887767.`)
	mustQuery(t, db, q)
	mustQuery(t, db, q)
	if got := db.reg.Get("sim_read_views_built_total") - before; got != 1 {
		t.Fatalf("a commit and two reads built %v read views, want 1", got)
	}
}

// TestRecordMemoPerStamp: every mapper view of one published stamp reads
// through one record memo, however many views are built over it, and a
// view of a newer stamp starts with an empty one.
func TestRecordMemoPerStamp(t *testing.T) {
	db := fileUniversity(t)
	student := db.Catalog().Class("student")
	ssn := catalog.ResolveAttr(student, "soc-sec-no")
	recs := make([]luc.Rec, 1)
	read := func(what string, want luc.CacheStats) {
		t.Helper()
		snap := db.store.PinSnapshot()
		defer snap.Release()
		m := db.Mapper().View(snap)
		s, ok, err := m.LookupUnique(ssn, value.NewInt(456887766))
		if err != nil || !ok {
			t.Fatalf("%s: lookup: %v %v", what, ok, err)
		}
		before := db.Stats().Cache
		if err := m.ReadBatch(student, []value.Surrogate{s}, recs); err != nil {
			t.Fatal(err)
		}
		after := db.Stats().Cache
		if got := (luc.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}); got != want {
			t.Errorf("%s: record reads %+v, want %+v", what, got, want)
		}
	}
	read("first view", luc.CacheStats{Misses: 1})
	read("second view of the stamp", luc.CacheStats{Hits: 1})
	mustExec(t, db, `Modify student (name := "Mary Minor") Where soc-sec-no = 456887767.`)
	read("view of the next stamp", luc.CacheStats{Misses: 1})
}

// TestReadViewFreshness: a Query issued after a write returned sees it,
// while concurrent readers keep rebuilding the shared view as every
// commit retires it — so views are built at the same moment as
// publishes. Once the readers stop, no stale view is left current.
// Run under -race.
func TestReadViewFreshness(t *testing.T) {
	db := gcDB(t)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(fmt.Sprintf(`From acct Retrieve bal Where id = %d.`, id)); err != nil {
					t.Error(err)
					return
				}
			}
		}(2 + r)
	}
	func() {
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for i := 1; i <= 100; i++ {
			set := fmt.Sprintf(`Modify acct (bal := %d) Where id = 1.`, i)
			if i%2 == 0 {
				mustExec(t, db, set)
			} else {
				tx, err := db.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Exec(ctx, set); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := acctBal(t, db.QueryCtx, 1); got != strconv.Itoa(i) {
				t.Fatalf("read after commit %d: bal=%s", i, got)
			}
		}
	}()
	if oldest, pub := db.store.OldestPinned(), db.store.Published(); oldest != pub {
		t.Fatalf("readers gone: oldest pinned stamp %d, published %d", oldest, pub)
	}
}

// TestReadViewSeesSchemaChange: the executor attached to a view belongs
// to the schema it was built under. A read after DefineSchema sees the
// new catalog, and so does a read-only transaction that pinned its view
// before the change: its statements, planned against the new catalog,
// read its Begin-time state (where the new class is empty).
func TestReadViewSeesSchemaChange(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	acctBal(t, ro.Query, 1)
	acctBal(t, db.QueryCtx, 1)
	if err := db.DefineSchema(`Subclass Vip of Acct ( tier: integer );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert vip (id := 7, bal := 1, tier := 3).`)
	expectRows(t, mustQuery(t, db, `From vip Retrieve id, tier.`), [][]string{{"7", "3"}})
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("read-only tx after DefineSchema: bal=%s, want 100", got)
	}
	r, err := ro.Query(ctx, `From vip Retrieve id, tier.`)
	if err != nil {
		t.Fatalf("read-only tx after DefineSchema: %v", err)
	}
	if r.NumRows() != 0 {
		t.Fatalf("read-only tx sees %d vips inserted after its Begin", r.NumRows())
	}
}

// TestReadViewSeesResnapshot: a follower installing a base image commits
// it under a new published stamp, like any applied group, so the view
// built before the install goes stale with it. A read right after the
// install sees the replaced pages; a read-only transaction begun before
// it keeps reading the state it pinned.
func TestReadViewSeesResnapshot(t *testing.T) {
	primary := gcDB(t)
	follower, err := Open(filepath.Join(t.TempDir(), "follower.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	install := func() {
		t.Helper()
		img, _, err := primary.ReplSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplySnapshot(img, dmsii.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	install()
	if got := acctBal(t, follower.QueryCtx, 1); got != "100" {
		t.Fatalf("follower bal=%s, want 100", got)
	}
	ctx := context.Background()
	ro, err := follower.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	stamp := follower.store.Published()
	mustExec(t, primary, `Modify acct (bal := 7) Where id = 1.`)
	install()
	if got := follower.store.Published(); got <= stamp {
		t.Fatalf("follower stamp %d → %d; the install must publish a new one", stamp, got)
	}
	if got := acctBal(t, follower.QueryCtx, 1); got != "7" {
		t.Fatalf("follower read after resnapshot: bal=%s, want 7", got)
	}
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("read-only tx begun before the resnapshot: bal=%s, want 100", got)
	}
}

// TestReadViewPerHolderRelease: transactions begun at one stamp share a
// view, so each must drop its own reference exactly once however it
// finishes — Commit then Rollback, an aborted statement, a failed
// Commit. Afterwards the first holder still reads its stamp and still
// pins it against version GC; its own release unpins it.
func TestReadViewPerHolderRelease(t *testing.T) {
	inj := fault.NewInjector()
	db, err := openFaultDB(inj, pager.NewMemByteFile(), pager.NewMemByteFile())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert acct (id := 1, bal := 100).`)
	mustExec(t, db, `Insert acct (id := 2, bal := 100).`)
	ctx := context.Background()
	begin := func(opts ...TxOption) *Tx {
		t.Helper()
		tx, err := db.Begin(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	a := begin(ReadOnly())
	acctBal(t, a.Query, 1)
	stamp := a.view.Stamp()

	b := begin(ReadOnly())
	if b.view != a.view {
		t.Fatal("read-only transactions begun at one stamp hold different views")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b.Rollback()

	c := begin()
	acctBal(t, c.Query, 2)
	if _, err := c.Exec(ctx, `Insert acct (id := 1, bal := 0).`); err == nil {
		t.Fatal("duplicate unique id inserted")
	}
	if err := c.Commit(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("Commit after an aborted statement: %v, want ErrTxAborted", err)
	}
	c.Rollback()

	d := begin()
	mustExec(t, db, `Modify acct (bal := 200) Where id = 1.`) // retires the shared view
	if got := db.store.OldestPinned(); got != stamp {
		t.Fatalf("after other holders finished: oldest pinned stamp %d, want %d", got, stamp)
	}
	if _, err := d.Exec(ctx, `Modify acct (bal := 300) Where id = 2.`); err != nil {
		t.Fatal(err)
	}
	inj.FailSync(inj.Ops()+2, nil) // the commit's WAL write, then its sync
	if err := d.Commit(); err == nil {
		t.Fatal("commit with a failing WAL sync succeeded")
	}
	d.Rollback()
	d.Rollback()

	if got := acctBal(t, a.Query, 1); got != "100" {
		t.Fatalf("first holder reads bal=%s, want its Begin-time 100", got)
	}
	if got := db.store.OldestPinned(); got != stamp {
		t.Fatalf("after a failed Commit and Rollback: oldest pinned stamp %d, want %d", got, stamp)
	}
	a.Rollback()
	a.Rollback()
	if oldest, pub := db.store.OldestPinned(), db.store.Published(); oldest != pub {
		t.Fatalf("all holders gone: oldest pinned stamp %d, published %d", oldest, pub)
	}
}
