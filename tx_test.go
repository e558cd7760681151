package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// txDB builds an in-memory database with a tiny account class and one
// seeded row (id 1), for the explicit-transaction tests.
func txDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(`Class Acct ( id: integer unique required; bal: integer );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert acct (id := 1, bal := 100).`)
	return db
}

// acctIDs reads the set of acct ids through query, which is either a
// Database.QueryCtx or a Tx.Query method value.
func acctIDs(t *testing.T, query func(ctx context.Context, dml string) (*Result, error)) map[string]bool {
	t.Helper()
	r, err := query(context.Background(), `From acct Retrieve id.`)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, row := range r.Rows() {
		ids[row[0].String()] = true
	}
	return ids
}

func TestTxCommitReadYourWrites(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Exec(ctx, `Insert acct (id := 2, bal := 50).`); n != 1 || err != nil {
		t.Fatalf("insert in tx: n=%d err=%v", n, err)
	}
	// The transaction sees its own uncommitted write.
	if ids := acctIDs(t, tx.Query); !ids["2"] {
		t.Fatalf("tx does not see its own insert: %v", ids)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ids := acctIDs(t, db.QueryCtx); !ids["1"] || !ids["2"] {
		t.Fatalf("committed rows missing: %v", ids)
	}

	// The Tx is dead after Commit: every method reports ErrTxDone, except
	// Rollback, which is a safe no-op (for the defer idiom).
	if _, err := tx.Exec(ctx, `Insert acct (id := 3, bal := 0).`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Exec after commit: %v, want ErrTxDone", err)
	}
	if _, err := tx.Query(ctx, `From acct Retrieve id.`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Query after commit: %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second Commit: %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after commit should be a no-op: %v", err)
	}
}

func TestTxRollbackDiscards(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Insert acct (id := 2, bal := 50).`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Modify acct (bal := 0) Where id = 1.`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if ids := acctIDs(t, db.QueryCtx); ids["2"] {
		t.Fatalf("rolled-back insert persisted: %v", ids)
	}
	r := mustQuery(t, db, `From acct Retrieve bal Where id = 1.`)
	if got := r.Rows()[0][0].String(); got != "100" {
		t.Fatalf("rolled-back Modify persisted: bal = %s, want 100", got)
	}
}

func TestTxAbortIsSticky(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Insert acct (id := 2, bal := 50).`); err != nil {
		t.Fatal(err)
	}
	// Duplicate id violates the unique constraint: the statement fails and
	// the whole transaction aborts — including the earlier, valid insert.
	if _, err := tx.Exec(ctx, `Insert acct (id := 1, bal := 0).`); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	for name, got := range map[string]error{
		"Exec":   func() error { _, err := tx.Exec(ctx, `Insert acct (id := 3, bal := 0).`); return err }(),
		"Query":  func() error { _, err := tx.Query(ctx, `From acct Retrieve id.`); return err }(),
		"Commit": tx.Commit(),
	} {
		if !errors.Is(got, ErrTxAborted) {
			t.Fatalf("%s after abort: %v, want ErrTxAborted", name, got)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after abort should be a no-op: %v", err)
	}
	if ids := acctIDs(t, db.QueryCtx); ids["2"] {
		t.Fatalf("aborted transaction's earlier insert persisted: %v", ids)
	}
}

func TestTxConflictFirstWriterWins(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Rollback()
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Rollback()

	if _, err := tx1.Exec(ctx, `Modify acct (bal := 50) Where id = 1.`); err != nil {
		t.Fatal(err)
	}
	// tx1 holds the write latch and wrote the id-1 entity: tx2, targeting it,
	// fails fast with ErrConflict instead of waiting — before it ever
	// blocks on the store write latch — and the conflict does not abort
	// tx2.
	if _, err := tx2.Exec(ctx, `Modify acct (bal := 60) Where id = 1.`); !errors.Is(err, ErrConflict) {
		t.Fatalf("second writer: %v, want ErrConflict", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// The latch died with tx1; tx2 is still usable and can now write, and
	// its statement sees the committed state (no lost update).
	if _, err := tx2.Exec(ctx, `Modify acct (bal := bal + 10) Where id = 1.`); err != nil {
		t.Fatalf("retry after winner committed: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, db, `From acct Retrieve bal Where id = 1.`)
	if got := r.Rows()[0][0].String(); got != "60" {
		t.Fatalf("bal after both commits = %s, want 60 (tx1's 50 + tx2's 10)", got)
	}
}

// An autocommit statement never raises ErrConflict against an open
// transaction: it queues on the store's write latch, bounded by its
// context.
func TestAutocommitQueuesBehindOpenTx(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Insert acct (id := 30, bal := 1).`); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	_, err = db.ExecCtx(short, `Insert acct (id := 31, bal := 1).`)
	if errors.Is(err, ErrConflict) {
		t.Fatalf("autocommit vs open tx raised a conflict: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("autocommit vs open tx: %v, want context.DeadlineExceeded", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`Insert acct (id := 31, bal := 1).`); err != nil {
		t.Fatalf("autocommit after the transaction finished: %v", err)
	}
}

// Statement-kind errors (Retrieve via Exec, nested transaction control)
// are rejected without aborting the transaction.
func TestTxExecRejectsNonUpdates(t *testing.T) {
	db := txDB(t)
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(ctx, `From acct Retrieve id.`); err == nil || !strings.Contains(err.Error(), "Query") {
		t.Fatalf("Exec(Retrieve): %v, want hint to use Query", err)
	}
	if _, err := tx.Exec(ctx, `Begin Transaction.`); err == nil || !strings.Contains(err.Error(), "Begin/Commit/Rollback") {
		t.Fatalf("Exec(Begin): %v, want transaction-control rejection", err)
	}
	// Neither rejection aborted the transaction.
	if _, err := tx.Exec(ctx, `Insert acct (id := 40, bal := 1).`); err != nil {
		t.Fatalf("insert after rejected statements: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{PoolPages: -1}, "PoolPages"},
		{Config{PlanCacheSize: -2}, "PlanCacheSize"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Fatalf("Validate(%+v) = %v, want *ConfigError for %s", c.cfg, err, c.field)
		}
		// Open performs the same validation before touching storage.
		if _, err := Open("", c.cfg); !errors.As(err, &ce) || ce.Field != c.field {
			t.Fatalf("Open with bad %s: %v, want *ConfigError", c.field, err)
		}
	}
	// Sentinels are valid: zero values and PlanCacheSize -1.
	if err := (Config{PlanCacheSize: -1}).Validate(); err != nil {
		t.Fatalf("PlanCacheSize -1 should be valid: %v", err)
	}
}

func TestRunTransactionBlocks(t *testing.T) {
	db := txDB(t)

	// A committed block persists as a unit.
	if _, err := db.Run(`
		Begin Transaction.
		Insert acct (id := 50, bal := 1).
		Insert acct (id := 51, bal := 2).
		Commit.`); err != nil {
		t.Fatalf("committed block: %v", err)
	}
	// An explicit rollback discards the block.
	if _, err := db.Run(`
		Begin Transaction.
		Insert acct (id := 60, bal := 1).
		Rollback.`); err != nil {
		t.Fatalf("rollback block: %v", err)
	}
	// A transaction still open at script end is rolled back.
	if _, err := db.Run(`
		Begin Transaction.
		Insert acct (id := 61, bal := 1).`); err != nil {
		t.Fatalf("open-at-end block: %v", err)
	}
	ids := acctIDs(t, db.QueryCtx)
	for id, want := range map[string]bool{"50": true, "51": true, "60": false, "61": false} {
		if ids[id] != want {
			t.Fatalf("after scripts, id %s present=%v want %v (ids %v)", id, ids[id], want, ids)
		}
	}

	// A failing statement inside a block rolls the whole block back, and
	// the error carries the statement's 1-based index.
	_, err := db.Run(`
		Begin Transaction.
		Insert acct (id := 70, bal := 1).
		Insert acct (id := 1, bal := 0).
		Commit.`)
	if err == nil || !strings.Contains(err.Error(), "statement 3") {
		t.Fatalf("failing block: %v, want error at statement 3", err)
	}
	if acctIDs(t, db.QueryCtx)["70"] {
		t.Fatal("failed block's earlier insert persisted")
	}

	// Structural errors name their statement too.
	if _, err := db.Run(`Commit.`); err == nil || !strings.Contains(err.Error(), "statement 1") {
		t.Fatalf("bare COMMIT: %v, want error at statement 1", err)
	}
	if _, err := db.Run(`Begin Transaction. Begin Transaction.`); err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("nested BEGIN: %v, want error at statement 2", err)
	}
}
