package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"sim/internal/dmsii"
	"sim/internal/pager"
	"sim/internal/university"
	"sim/internal/wal"
)

// Isolation anomaly suite. Each test pins one guarantee of the MVCC
// model (DESIGN.md §15): snapshot reads see only committed state, a
// transaction's read view is stable, write conflicts are first-writer-
// wins at entity granularity, and readers never touch the store write
// latch. Run under -race; CI's test job does.

// acctBal reads acct id=1's balance through query (a Database.QueryCtx
// or Tx.Query method value).
func acctBal(t *testing.T, query func(ctx context.Context, dml string) (*Result, error), id int) string {
	t.Helper()
	r, err := query(context.Background(), fmt.Sprintf(`From acct Retrieve bal Where id = %d.`, id))
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("want one acct row for id=%d, got %d", id, len(rows))
	}
	return rows[0][0].String()
}

// TestIsolationNoDirtyReads: an uncommitted write is invisible to every
// other reader — autocommit statements and read-only transactions alike.
func TestIsolationNoDirtyReads(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Modify acct (bal := 999) Where id = 1.`); err != nil {
		t.Fatalf("uncommitted write: %v", err)
	}
	// The writer itself reads its own write...
	if got := acctBal(t, tx.Query, 1); got != "999" {
		t.Fatalf("writer does not read its own write: bal=%s", got)
	}
	// ...but nobody else does.
	if got := acctBal(t, db.QueryCtx, 1); got != "100" {
		t.Fatalf("dirty read through autocommit: bal=%s, want 100", got)
	}
	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("dirty read through read-only tx: bal=%s, want 100", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Post-commit: new statements see the write.
	if got := acctBal(t, db.QueryCtx, 1); got != "999" {
		t.Fatalf("committed write invisible: bal=%s", got)
	}
}

// TestIsolationRepeatableReads: a transaction's read view is pinned at
// Begin; writes committed afterwards by others never leak in.
func TestIsolationRepeatableReads(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()

	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("first read: bal=%s", got)
	}
	if _, err := db.ExecCtx(ctx, `Modify acct (bal := 200) Where id = 1.`); err != nil {
		t.Fatalf("concurrent autocommit write: %v", err)
	}
	// The open snapshot still answers with the Begin-time state, even
	// though a newer version is committed and published.
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("non-repeatable read: bal=%s, want 100", got)
	}
	// Entities committed after Begin are invisible too (no phantoms from
	// the pinned snapshot's point of view).
	if _, err := db.ExecCtx(ctx, `Insert acct (id := 7, bal := 7).`); err != nil {
		t.Fatal(err)
	}
	if ids := acctIDs(t, ro.Query); ids["7"] {
		t.Fatalf("phantom entity leaked into pinned snapshot: %v", ids)
	}
	// A fresh statement outside the transaction sees everything.
	if got := acctBal(t, db.QueryCtx, 1); got != "200" {
		t.Fatalf("autocommit read after commit: bal=%s", got)
	}
}

// TestIsolationFirstWriterWinsEntity: two transactions writing the SAME
// entity conflict immediately — fail-fast ErrConflict for the second,
// without aborting it — and the loser can retry after the winner commits.
func TestIsolationFirstWriterWinsEntity(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()

	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(ctx, `Modify acct (bal := 150) Where id = 1.`); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := db.store.Conflicts()
	if _, err := tx2.Exec(ctx, `Modify acct (bal := 1) Where id = 1.`); !errors.Is(err, ErrConflict) {
		t.Fatalf("second writer on the same entity: err=%v, want ErrConflict", err)
	}
	if got := db.store.Conflicts(); got != before+1 {
		t.Fatalf("sim_txn_conflicts_total: %d, want %d", got, before+1)
	}
	// The conflict did not abort tx2; it is still usable.
	if got := acctBal(t, tx2.Query, 1); got != "100" {
		t.Fatalf("tx2 read after conflict: bal=%s", got)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// tx1's write record died with its write latch: tx2 can now write.
	if _, err := tx2.Exec(ctx, `Modify acct (bal := bal + 10) Where id = 1.`); err != nil {
		t.Fatalf("retry after winner committed: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := acctBal(t, db.QueryCtx, 1); got != "160" {
		t.Fatalf("lost update: bal=%s, want 160", got)
	}
}

// TestIsolationDistinctEntitiesBothCommit: two transactions writing
// DIFFERENT entities of the same class do not conflict — the second
// queues on the store write latch and commits after the first. The same
// holds for eight concurrent writers over disjoint ids.
func TestIsolationDistinctEntitiesBothCommit(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	mustExec(t, db, `Insert acct (id := 2, bal := 200).`)

	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(ctx, `Modify acct (bal := 111) Where id = 1.`); err != nil {
		t.Fatal(err)
	}
	// tx2 targets entity 2: no conflict, but it must wait for the write
	// latch tx1 holds, so it runs on its own goroutine.
	done := make(chan error, 1)
	go func() {
		tx2, err := db.Begin(ctx)
		if err != nil {
			done <- err
			return
		}
		if _, err := tx2.Exec(ctx, `Modify acct (bal := 222) Where id = 2.`); err != nil {
			tx2.Rollback()
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("tx2 finished while tx1 held the write latch: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("tx2 (distinct entity): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tx2 never finished after tx1 committed")
	}
	if got := acctBal(t, db.QueryCtx, 1); got != "111" {
		t.Fatalf("entity 1: bal=%s", got)
	}
	if got := acctBal(t, db.QueryCtx, 2); got != "222" {
		t.Fatalf("entity 2: bal=%s", got)
	}

	// Eight concurrent writers, each owning ids congruent to it mod 8,
	// run explicit Begin/Modify/Commit transactions over one class: entity
	// granularity must never report a conflict, and no increment is lost.
	const writers, idsPer, rounds = 8, 4, 12
	for id := 100; id < 100+writers*idsPer; id++ {
		mustExec(t, db, fmt.Sprintf(`Insert acct (id := %d, bal := 0).`, id))
	}
	conflicts := db.store.Conflicts()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := 100 + g + writers*(i%idsPer)
				tx, err := db.Begin(ctx)
				if err != nil {
					errs <- err
					return
				}
				if _, err := tx.Exec(ctx, fmt.Sprintf(`Modify acct (bal := bal + 1) Where id = %d.`, id)); err != nil {
					tx.Rollback()
					errs <- fmt.Errorf("writer %d, id %d: %w", g, id, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("writer %d commit: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.store.Conflicts(); got != conflicts {
		t.Fatalf("disjoint writers raised %d entity conflicts, want 0", got-conflicts)
	}
	sum := 0
	for _, row := range mustQuery(t, db, `From acct Retrieve bal Where id >= 100.`).Rows() {
		n, err := strconv.Atoi(row[0].String())
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	if sum != writers*rounds {
		t.Fatalf("sum of bal over disjoint writers' ids = %d, want %d", sum, writers*rounds)
	}
}

// TestVersionGCFollowsOldestPin: retained page pre-images are bounded by
// the oldest pinned snapshot, not by write volume. A checkpoint under a
// pin keeps the versions the pinned reader still needs; the checkpoint
// after the pin is released sweeps them all.
func TestVersionGCFollowsOldestPin(t *testing.T) {
	db := gcDB(t)
	ctx := context.Background()
	live := func() float64 { return db.Metrics().Snapshot()["sim_mvcc_live_versions"] }

	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	pinned := acctBal(t, ro.Query, 1)
	gcChurn(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if held := live(); held <= 0 {
		t.Fatalf("live versions after checkpoint under a pin = %v, want > 0", held)
	}
	if got := acctBal(t, ro.Query, 1); got != pinned {
		t.Fatalf("pinned reader after checkpoint: bal=%s, want its Begin-time %s", got, pinned)
	}
	if err := ro.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if released := live(); released != 0 {
		t.Fatalf("live versions after the pin's release and a checkpoint = %v, want 0", released)
	}
}

const gcRows = 64

// gcDB opens a file-backed database of gcRows accounts.
func gcDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "gc.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= gcRows; id++ {
		mustExec(t, db, fmt.Sprintf(`Insert acct (id := %d, bal := 100).`, id))
	}
	return db
}

// gcChurn commits 200 autocommit Modifies, each leaving page pre-images.
func gcChurn(t *testing.T, db *Database) {
	t.Helper()
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`Modify acct (bal := bal + 1) Where id = %d.`, 1+i%gcRows))
	}
}

// TestVersionGCIgnoresIdleView: the read view that readers share stays
// current until the next commit, but no longer. A reader that finished
// before a burst of commits, with no read after it, pins nothing: the
// checkpoint sweeps every pre-image.
func TestVersionGCIgnoresIdleView(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(t *testing.T, db *Database)
	}{
		{"query", func(t *testing.T, db *Database) { acctBal(t, db.QueryCtx, 1) }},
		{"read-only tx", func(t *testing.T, db *Database) {
			ro, err := db.Begin(context.Background(), ReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			acctBal(t, ro.Query, 1)
			if err := ro.Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := gcDB(t)
			tc.read(t, db)
			gcChurn(t, db)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if oldest, pub := db.store.OldestPinned(), db.store.Published(); oldest != pub {
				t.Fatalf("oldest pinned stamp %d, published %d: an idle view still pins its stamp", oldest, pub)
			}
			if n := db.store.LiveVersions(); n != 0 {
				t.Fatalf("live versions after the checkpoint = %d, want 0", n)
			}
		})
	}
}

// TestFollowerVersionGC is TestVersionGCIgnoresIdleView on a follower:
// every applied group commits under its own stamp and leaves pre-images
// like a local commit. With no reader open across 200 groups, the next
// checkpoint sweeps every one of them; a ReadOnly transaction held across
// 200 more keeps its pre-images — and its reads — until it ends.
func TestFollowerVersionGC(t *testing.T) {
	primary := gcDB(t)
	img, _, err := primary.ReplSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
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
	follower, err := Open(filepath.Join(t.TempDir(), "follower.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	if err := follower.ApplySnapshot(img, dmsii.Position{}); err != nil {
		t.Fatal(err)
	}
	// replicate churns the primary and applies its 200 groups.
	replicate := func() {
		t.Helper()
		gcChurn(t, primary)
		mu.Lock()
		gs := groups
		groups = nil
		mu.Unlock()
		if len(gs) != 200 {
			t.Fatalf("%d groups shipped, want 200", len(gs))
		}
		pub := follower.store.Published()
		for _, g := range gs {
			if err := follower.ApplyReplicated(g, dmsii.Position{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := follower.store.Published(); got != pub+200 {
			t.Fatalf("published stamp %d → %d over 200 groups", pub, got)
		}
	}
	checkpoint := func() (oldest, pub uint64, live int64) {
		t.Helper()
		if err := follower.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return follower.store.OldestPinned(), follower.store.Published(), follower.store.LiveVersions()
	}

	acctBal(t, follower.QueryCtx, 1) // a reader that finished before the groups
	replicate()
	if oldest, pub, live := checkpoint(); oldest != pub || live != 0 {
		t.Fatalf("no reader open: oldest pinned %d, published %d, live versions %d; want %d, %d, 0", oldest, pub, live, pub, pub)
	}

	ro, err := follower.Begin(context.Background(), ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	pinned := acctBal(t, ro.Query, 1)
	replicate()
	if oldest, pub, live := checkpoint(); oldest >= pub || live == 0 {
		t.Fatalf("held read-only tx: oldest pinned %d, published %d, live versions %d; want its pre-images kept", oldest, pub, live)
	}
	if got := acctBal(t, ro.Query, 1); got != pinned {
		t.Fatalf("held read-only tx read bal %s, then %s across applied groups", pinned, got)
	}
	if now := acctBal(t, follower.QueryCtx, 1); now == pinned {
		t.Fatalf("a new query still reads bal %s after 200 applied groups", now)
	}
	if err := ro.Rollback(); err != nil {
		t.Fatal(err)
	}
	if oldest, pub, live := checkpoint(); oldest != pub || live != 0 {
		t.Fatalf("after Rollback: oldest pinned %d, published %d, live versions %d; want %d, %d, 0", oldest, pub, live, pub, pub)
	}
}

// TestIsolationReadersNeverBlockWriters: snapshot readers run entirely
// off the store write latch — a held write latch does not stall them,
// an open reader does not stall a writer, and the reader path performs
// zero write-latch acquisitions.
func TestIsolationReadersNeverBlockWriters(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()

	// A long-lived reader pins the oldest snapshot for the whole test.
	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()

	// A writer holding the write latch (open tx after its first write)
	// must not stall concurrent readers.
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Modify acct (bal := 300) Where id = 1.`); err != nil {
		t.Fatal(err)
	}
	latchAcq := func() float64 {
		return db.Metrics().Snapshot()["sim_latch_store_write_acquisitions_total"]
	}
	before := latchAcq()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			if _, err := db.QueryCtx(rctx, `From acct Retrieve id, bal.`); err != nil {
				t.Errorf("reader under held write latch: %v", err)
			}
		}()
	}
	wg.Wait()
	if after := latchAcq(); after != before {
		t.Fatalf("readers acquired the store write latch: %v → %v", before, after)
	}
	if got := acctBal(t, db.QueryCtx, 1); got != "100" {
		t.Fatalf("reader saw uncommitted write: bal=%s", got)
	}
	// The open read-only transaction does not stall the writer's commit.
	commitDone := make(chan error, 1)
	go func() { commitDone <- tx.Commit() }()
	select {
	case err := <-commitDone:
		if err != nil {
			t.Fatalf("commit under open reader: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("open read-only tx blocked a writer's commit")
	}
	// The reader still answers from its pinned snapshot after the commit.
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("pinned reader after commit: bal=%s, want 100", got)
	}
	if got := acctBal(t, db.QueryCtx, 1); got != "300" {
		t.Fatalf("fresh read after commit: bal=%s, want 300", got)
	}
}

// TestIsolationReadersCreateNoStructures: a Retrieve over structures that
// do not exist yet reads them as empty instead of creating them in the
// live store — creation allocates pages and writes the directory, which a
// reader holding neither the write latch nor a transaction must never do.
func TestIsolationReadersCreateNoStructures(t *testing.T) {
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	before, err := db.store.Structures()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`From student Retrieve name of advisor.`,
		`From student Retrieve name of advisor Where soc-sec-no = 1.`,
		`From course Retrieve title Where title >= "A" and title < "B".`,
	} {
		if r := mustQuery(t, db, q); r.NumRows() != 0 {
			t.Fatalf("%s: %d rows from an empty database", q, r.NumRows())
		}
	}
	after, err := db.store.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("reads changed the structure directory: %v → %v", before, after)
	}
}

// TestIsolationReadOnlyRefusesWrites: Exec inside a ReadOnly transaction
// fails with ErrReadOnlyTx without aborting the transaction.
func TestIsolationReadOnlyRefusesWrites(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()

	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false on a read-only tx")
	}
	if _, err := ro.Exec(ctx, `Modify acct (bal := 0) Where id = 1.`); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("Exec in read-only tx: %v, want ErrReadOnlyTx", err)
	}
	// Still readable after the refusal.
	if got := acctBal(t, ro.Query, 1); got != "100" {
		t.Fatalf("read after refused write: bal=%s", got)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

// teamDB builds an in-memory database of teams and their players.
func teamDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(`
Class Team (
  tname: string[20] unique required;
  members: player inverse is team-of mv );

Class Player (
  pname: string[20] unique required );`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestIsolationQueuedTxNeverAbortsWriter: a transaction queued on the
// write latch cannot make the latch holder fail. The holder w renames a
// team, then adds as a member a player whose rename b has queued behind
// it; w's statement must succeed and both transactions commit, w first.
func TestIsolationQueuedTxNeverAbortsWriter(t *testing.T) {
	db := teamDB(t)
	mustExec(t, db, `Insert player (pname := "Alice").`)
	mustExec(t, db, `Insert team (tname := "Reds").`)
	ctx := context.Background()
	conflicts := db.store.Conflicts()

	w, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	if _, err := w.Exec(ctx, `Modify team (tname := "Reds2") Where tname = "Reds".`); err != nil {
		t.Fatalf("w renames the team: %v", err)
	}
	b, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Rollback()
	done := make(chan error, 1)
	go func() {
		_, err := b.Exec(ctx, `Modify player (pname := "Alicia") Where pname = "Alice".`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("b returned while w held the write latch: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := w.Exec(ctx, `Modify team (members := include player with (pname = "Alice")) Where tname = "Reds2".`); err != nil {
		t.Errorf("w adds the player b is queued on: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Errorf("w commit: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("b after w finished: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("b never ran after w finished")
	}
	if err := b.Commit(); err != nil {
		t.Errorf("b commit: %v", err)
	}
	rows := mustQuery(t, db, `From team Retrieve tname, pname of members.`).Rows()
	if got := fmt.Sprint(rows); got != "[[Reds2 Alicia]]" {
		t.Errorf("rows = %s, want [[Reds2 Alicia]]", got)
	}
	if got := db.store.Conflicts(); got != conflicts {
		t.Errorf("entity conflicts rose by %d, want 0", got-conflicts)
	}
}

// TestIsolationConflictHistory runs seeded histories of explicit
// transactions over a few hot accounts and checks the conflict rule on
// every one: ErrConflict comes only from a statement of a transaction that
// has not written yet and leaves it usable, no conflict aborts anything,
// every committed increment lands, and each conflict is counted once.
func TestIsolationConflictHistory(t *testing.T) {
	const goroutines, txns, ids = 4, 25, 6
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			db := txDB(t)
			for id := 2; id <= ids; id++ {
				mustExec(t, db, fmt.Sprintf(`Insert acct (id := %d, bal := 100).`, id))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			before := db.store.Conflicts()
			var (
				mu        sync.Mutex
				committed int // Σ affected counts of committed transactions
				conflicts int // ErrConflicts returned
			)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(g)))
					for i := 0; i < txns; i++ {
						tx, err := db.Begin(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						wrote, affected, conflicted := false, 0, 0
						for k := 1 + rng.Intn(3); k > 0; k-- {
							where := fmt.Sprintf("id = %d", 1+rng.Intn(ids))
							if rng.Intn(2) == 0 {
								where += fmt.Sprintf(" or id = %d", 1+rng.Intn(ids))
							}
							n, err := tx.Exec(ctx, `Modify acct (bal := bal + 1) Where `+where+`.`)
							switch {
							case errors.Is(err, ErrConflict):
								conflicted++
								if wrote {
									t.Errorf("goroutine %d tx %d: ErrConflict after the transaction wrote: %v", g, i, err)
								}
							case err != nil:
								t.Errorf("goroutine %d tx %d: %v", g, i, err)
								tx.Rollback()
								return
							default:
								wrote = true
								affected += n
							}
							time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
						}
						if conflicted > 0 {
							// A conflict leaves the transaction usable.
							if _, err := tx.Query(ctx, `From acct Retrieve bal Where id = 1.`); err != nil {
								t.Errorf("goroutine %d tx %d: read after a conflict: %v", g, i, err)
							}
						}
						commit := rng.Intn(2) == 0
						if commit {
							err = tx.Commit()
						} else {
							err = tx.Rollback()
						}
						if err != nil {
							t.Errorf("goroutine %d tx %d: finish (commit=%v): %v", g, i, commit, err)
							return
						}
						mu.Lock()
						conflicts += conflicted
						if commit {
							committed += affected
						}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			sum := 0
			for _, row := range mustQuery(t, db, `From acct Retrieve bal.`).Rows() {
				n, err := strconv.Atoi(row[0].String())
				if err != nil {
					t.Fatal(err)
				}
				sum += n
			}
			if want := ids*100 + committed; sum != want {
				t.Errorf("Σ bal = %d, want %d (seed total %d + %d committed increments)", sum, want, ids*100, committed)
			}
			if got := int(db.store.Conflicts() - before); got != conflicts {
				t.Errorf("entity conflicts counted %d, want the %d ErrConflicts returned", got, conflicts)
			}
			t.Logf("committed increments %d, conflicts %d", committed, conflicts)
		})
	}
}

// TestIsolationWriterIgnoresSnapshotCacheFill: a snapshot reader that
// decodes an entity after an open transaction wrote it memoizes the
// committed image in the published view's memo; the writer must still read
// its own write, not that image — through a point read ("point") and
// through the batched partner reads of an EVA traversal ("batch").
func TestIsolationWriterIgnoresSnapshotCacheFill(t *testing.T) {
	ctx := context.Background()
	t.Run("point", func(t *testing.T) {
		db := txDB(t)
		// Enough rows that the point read plans a unique lookup, the path
		// that fills the read view's record memo.
		for id := 2; id <= 6; id++ {
			mustExec(t, db, fmt.Sprintf(`Insert acct (id := %d, bal := 100).`, id))
		}
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		for i := 0; i < 2; i++ {
			if _, err := tx.Exec(ctx, `Modify acct (bal := bal + 1) Where id = 1.`); err != nil {
				t.Fatal(err)
			}
			if got := acctBal(t, db.QueryCtx, 1); got != "100" {
				t.Fatalf("snapshot read: bal=%s, want 100", got)
			}
		}
		if got := acctBal(t, tx.Query, 1); got != "102" {
			t.Fatalf("writer reads bal=%s, want 102", got)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := acctBal(t, db.QueryCtx, 1); got != "102" {
			t.Fatalf("committed bal=%s, want 102", got)
		}
	})
	t.Run("batch", func(t *testing.T) {
		db := teamDB(t)
		mustExec(t, db, `Insert player (pname := "Alice").`)
		mustExec(t, db, `Insert player (pname := "Bob").`)
		mustExec(t, db, `Insert team (tname := "Reds", members := player with (pname = "Alice" or pname = "Bob")).`)
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		if _, err := tx.Exec(ctx, `Modify player (pname := "Alicia") Where pname = "Alice".`); err != nil {
			t.Fatal(err)
		}
		const q = `From team Retrieve pname of members.`
		if got := fmt.Sprint(mustQuery(t, db, q).Rows()); got != "[[Alice] [Bob]]" {
			t.Fatalf("snapshot read: %s, want [[Alice] [Bob]]", got)
		}
		r, err := tx.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(r.Rows()); got != "[[Alicia] [Bob]]" {
			t.Fatalf("writer reads %s, want [[Alicia] [Bob]]", got)
		}
	})
}
