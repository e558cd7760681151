package sim

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sim/internal/dmsii"
	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/wal"
)

// The schema a statement runs under is a published generation: DefineSchema
// builds it from the batches it reads under the write latch and publishes
// it only once the commit persisting its batch has succeeded. These tests
// pin that contract from the outside.

// TestDefineSchemaCommitFailure: a DDL batch whose commit fails its WAL
// fsync never becomes the schema — DefineSchema returns the error, a query
// naming the new class fails, the summary is unchanged — and it is absent
// after a reopen.
func TestDefineSchemaCommitFailure(t *testing.T) {
	inj := fault.NewInjector()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	db, err := openFaultDB(inj, dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert acct (id := 1, bal := 100).`)
	summary := db.SchemaSummary()

	inj.FailSync(inj.Ops()+2, nil) // the commit's WAL write, then its sync
	if err := db.DefineSchema(`Class Lost ( n: integer );`); err == nil {
		t.Fatal("DefineSchema with a failing WAL sync succeeded")
	}
	if _, err := db.Query(`From lost Retrieve n.`); err == nil {
		t.Fatal("a query names a class whose DDL commit failed")
	}
	if got := db.SchemaSummary(); got != summary {
		t.Fatalf("schema summary changed by a failed DDL commit:\n%s\nwant\n%s", got, summary)
	}
	expectRows(t, mustQuery(t, db, `From acct Retrieve bal Where id = 1.`), [][]string{{"100"}})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = openFaultDB(fault.NewInjector(), dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Catalog().Class("lost") != nil {
		t.Fatal("the class of a failed DDL commit is present after a reopen")
	}
	if got := db.SchemaSummary(); got != summary {
		t.Fatalf("schema summary after a reopen:\n%s\nwant\n%s", got, summary)
	}
	expectRows(t, mustQuery(t, db, `From acct Retrieve bal Where id = 1.`), [][]string{{"100"}})
	if _, err := db.Query(`From lost Retrieve n.`); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("query naming the lost class after a reopen: %v", err)
	}
}

// ddlSubclasses names the subclasses TestDefineSchemaConcurrent defines:
// definer d defines sub<d>_<i>, each with one attribute of its own.
func ddlSubclass(d, i int) (name, ddl string) {
	name = fmt.Sprintf("sub%d_%d", d, i)
	return name, fmt.Sprintf(`Subclass %s of Acct ( t%d_%d: integer );`, name, d, i)
}

// unknownClass reports whether err is the "unknown class" error of a
// statement naming a class its schema generation does not have.
func unknownClass(err error, name string) bool {
	return err != nil && strings.Contains(err.Error(), "unknown") && strings.Contains(err.Error(), fmt.Sprintf("class %q", name))
}

// TestDefineSchemaConcurrent: two definers extend the schema at once while
// readers loop Query, Explain and CheckIntegrity, a writer inserts into
// each new class as soon as it is published, and a follower applying the
// primary's groups serves a reader of its own. Every batch persists under
// a key of its own and survives a reopen; no statement fails with
// anything but "unknown class" for a class not yet published; no follower
// read decodes a row under a schema that lacks its class. Run under -race.
func TestDefineSchemaConcurrent(t *testing.T) {
	const definers, perDefiner = 2, 5
	path := filepath.Join(t.TempDir(), "ddl.sim")
	db, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert acct (id := 1, bal := 100).`)
	var names []string
	for d := 0; d < definers; d++ {
		for i := 0; i < perDefiner; i++ {
			name, _ := ddlSubclass(d, i)
			names = append(names, name)
		}
	}

	img, _, err := db.ReplSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(filepath.Join(t.TempDir(), "follower.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplySnapshot(img, dmsii.Position{}); err != nil {
		t.Fatal(err)
	}
	groups := make(chan []pager.PageImage, 1024)
	db.SetCommitHook(func(g wal.CommitGroup) uint64 {
		imgs := make([]pager.PageImage, len(g.Images))
		for i, im := range g.Images {
			imgs[i] = pager.PageImage{ID: im.ID, Data: bytes.Clone(im.Data)}
		}
		groups <- imgs
		return 0
	})

	stop := make(chan struct{})
	var wg, workers sync.WaitGroup
	loop := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// check runs one statement naming class name: it may fail only because
	// the generation it ran under lacks the class.
	check := func(what, name string, err error) error {
		if err != nil && !unknownClass(err, name) {
			return fmt.Errorf("%s naming %s: %w", what, name, err)
		}
		return nil
	}
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		loop(func() error {
			for _, name := range names {
				q := fmt.Sprintf(`From %s Retrieve id, bal.`, name)
				if _, err := db.Query(q); check("Query", name, err) != nil {
					return check("Query", name, err)
				}
				if _, err := db.Explain(q); check("Explain", name, err) != nil {
					return check("Explain", name, err)
				}
			}
			reads.Add(1)
			return db.CheckIntegrity()
		})
	}
	loop(func() error { // a follower reader
		if _, err := follower.Query(`From acct Retrieve id, bal.`); err != nil {
			return fmt.Errorf("follower scan: %w", err)
		}
		for _, name := range names {
			if _, err := follower.Query(fmt.Sprintf(`From %s Retrieve id.`, name)); check("follower Query", name, err) != nil {
				return check("follower Query", name, err)
			}
		}
		return nil
	})
	applied := make(chan error, 1)
	go func() { // the follower's apply loop
		for g := range groups {
			if err := follower.ApplyReplicated(g, dmsii.Position{}); err != nil {
				applied <- err
				for range groups {
				}
				return
			}
		}
		applied <- nil
	}()

	// The writer inserts into each class as soon as it is published; once
	// the definers are done, a class still unknown was lost.
	var definersWG sync.WaitGroup
	defined := make(chan struct{})
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i, name := range names {
			stmt := fmt.Sprintf(`Insert %s (id := %d, bal := 1).`, name, 100+i)
			for {
				select {
				case <-defined:
					if _, err := db.Exec(stmt); err != nil {
						t.Errorf("insert into %s after every definer returned: %v", name, err)
						return
					}
				default:
					_, err := db.Exec(stmt)
					if err != nil && !unknownClass(err, name) {
						t.Errorf("insert into %s: %v", name, err)
						return
					}
					if err != nil {
						runtime.Gosched()
						continue
					}
				}
				break
			}
		}
	}()
	for d := 0; d < definers; d++ {
		definersWG.Add(1)
		go func() {
			defer definersWG.Done()
			for i := 0; i < perDefiner; i++ {
				_, ddl := ddlSubclass(d, i)
				if err := db.DefineSchema(ddl); err != nil {
					t.Errorf("definer %d: %v", d, err)
					return
				}
			}
		}()
	}
	definersWG.Wait()
	close(defined)
	workers.Wait()
	close(stop)
	wg.Wait()
	db.SetCommitHook(nil)
	close(groups)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if reads.Load() == 0 {
		t.Fatal("no reader pass completed")
	}

	verify := func(who string, db *Database) {
		t.Helper()
		cat := db.Catalog()
		for _, name := range names {
			if cat.Class(name) == nil {
				t.Fatalf("%s: the published catalog lacks class %s", who, name)
			}
		}
		for i, name := range names {
			expectRows(t, mustQuery(t, db, fmt.Sprintf(`From %s Retrieve id.`, name)), [][]string{{fmt.Sprint(100 + i)}})
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	}
	verify("follower", follower)
	verify("primary", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	verify("reopened primary", db)
	st, err := db.store.Structure("~schema")
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Valid(); i++ {
		if got, want := string(c.Key()), string(batchKey(i)); got != want {
			t.Fatalf("batch %d stored under key %q, want %q", i, got, want)
		}
		c.Next()
	}
}

// TestReadersAcrossWriteSideEvents: readers keep running — plain queries
// and read-only transactions, on a primary and on its follower — across
// every event that once took the database-wide lock exclusively: a
// rolled-back transaction, a statement abort, a commit failed by its WAL
// fsync, a follower snapshot install, and a promoted follower's own
// writes. Transfers keep the total balance fixed and each event's
// uncommitted write breaks it, so every read must see the invariant. Run
// under -race.
func TestReadersAcrossWriteSideEvents(t *testing.T) {
	const accts, total, rounds = 20, 20 * 100, 4
	inj := fault.NewInjector()
	primary, err := openFaultDB(inj, pager.NewMemByteFile(), pager.NewMemByteFile())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= accts; id++ {
		mustExec(t, primary, fmt.Sprintf(`Insert acct (id := %d, bal := 100).`, id))
	}
	follower, err := Open(filepath.Join(t.TempDir(), "follower.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
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
	var mu sync.Mutex
	var groups [][]pager.PageImage
	primary.SetCommitHook(func(g wal.CommitGroup) uint64 {
		imgs := make([]pager.PageImage, len(g.Images))
		for i, im := range g.Images {
			imgs[i] = pager.PageImage{ID: im.ID, Data: bytes.Clone(im.Data)}
		}
		mu.Lock()
		groups = append(groups, imgs)
		mu.Unlock()
		return 0
	})
	catchUp := func() {
		t.Helper()
		mu.Lock()
		gs := groups
		groups = nil
		mu.Unlock()
		for _, g := range gs {
			if err := follower.ApplyReplicated(g, dmsii.Position{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	const q = `From acct Retrieve id, bal.`
	balanced := func(r *Result) error {
		sum := 0
		for _, row := range r.Rows() {
			var b int
			fmt.Sscan(row[1].String(), &b)
			sum += b
		}
		if r.NumRows() != accts || sum != total {
			return fmt.Errorf("read %d rows, balance %d; want %d rows, balance %d", r.NumRows(), sum, accts, total)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	reader := func(db *Database, who string) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := func() error {
				if i%2 == 0 {
					r, err := db.Query(q)
					if err != nil {
						return err
					}
					return balanced(r)
				}
				ro, err := db.Begin(ctx, ReadOnly())
				if err != nil {
					return err
				}
				defer ro.Rollback()
				first, err := ro.Query(ctx, q)
				if err != nil {
					return err
				}
				runtime.Gosched()
				again, err := ro.Query(ctx, q)
				if err != nil {
					return err
				}
				if first.Format() != again.Format() {
					return fmt.Errorf("read-only tx not repeatable")
				}
				return balanced(first)
			}()
			if err != nil {
				t.Errorf("%s reader: %v", who, err)
				return
			}
			reads.Add(1)
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go reader(primary, "primary")
		go reader(follower, "follower")
	}

	transfer := func(db *Database, from, to int) {
		t.Helper()
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		if _, err := tx.Exec(ctx, fmt.Sprintf(`Modify acct (bal := bal - 7) Where id = %d.`, from)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(ctx, fmt.Sprintf(`Modify acct (bal := bal + 7) Where id = %d.`, to)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// unbalanced opens a transaction whose first write breaks the invariant.
	unbalanced := func() *Tx {
		t.Helper()
		tx, err := primary.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(ctx, `Modify acct (bal := bal - 1000) Where id = 1.`); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	churn := func(db *Database, round int) {
		t.Helper()
		for i := 0; i < 10; i++ {
			transfer(db, 1+(round+i)%accts, 1+(round+2*i+1)%accts)
		}
	}

	func() {
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for round := 0; round < rounds; round++ {
			churn(primary, round)
			catchUp()

			// A rolled-back transaction.
			if err := unbalanced().Rollback(); err != nil {
				t.Fatal(err)
			}
			// A statement abort: the duplicate id fails after the first write.
			tx := unbalanced()
			if _, err := tx.Exec(ctx, `Insert acct (id := 2, bal := 0).`); err == nil {
				t.Fatal("duplicate unique id inserted")
			}
			tx.Rollback()
			// A commit failed by its WAL fsync; the checkpoint clears the
			// poisoned log.
			tx = unbalanced()
			inj.FailSync(inj.Ops()+2, nil) // the commit's WAL write, then its sync
			if err := tx.Commit(); err == nil {
				t.Fatal("commit with a failing WAL sync succeeded")
			}
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			churn(primary, round)
			catchUp()

			// A follower snapshot install.
			install()
			mu.Lock()
			groups = nil // the image holds them
			mu.Unlock()
		}
		// A promotion: the follower writes from the counters its last
		// apply shipped.
		for round := 0; round < rounds; round++ {
			churn(follower, round)
		}
	}()
	if t.Failed() {
		return
	}
	if reads.Load() == 0 {
		t.Fatal("no read completed")
	}
	for _, db := range []*Database{primary, follower} {
		r, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := balanced(r); err != nil {
			t.Fatal(err)
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d reads across %d rounds of events", reads.Load(), rounds)
}
