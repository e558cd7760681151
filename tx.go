package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/exec"
	"sim/internal/obs"
	"sim/internal/value"
)

// Transaction errors.
var (
	// ErrTxDone is returned by operations on a transaction that has
	// already been committed or rolled back.
	ErrTxDone = errors.New("sim: transaction already finished")

	// ErrTxAborted wraps the statement error that aborted a transaction.
	// After a statement inside a Tx fails, the transaction's effects are
	// already rolled back and every later operation fails with this error;
	// the caller should Rollback (a no-op) and retry the whole transaction.
	ErrTxAborted = errors.New("sim: transaction aborted")

	// ErrConflict is wrapped by Tx.Exec when an entity the statement
	// targets was written by the open transaction holding the store write
	// latch: first writer wins, the loser fails fast instead of waiting.
	// Only a transaction that has not written yet can get it, and a
	// conflict does not abort the transaction — the caller may retry the
	// statement later or roll back. Two transactions writing distinct
	// entities never conflict, even within one class.
	ErrConflict = dmsii.ErrConflict

	// ErrReadOnlyTx is returned by Exec on a transaction opened with the
	// ReadOnly option.
	ErrReadOnlyTx = errors.New("sim: read-only transaction")
)

// TxOption configures a transaction at Begin time.
type TxOption func(*txOptions)

type txOptions struct {
	readOnly bool
}

// ReadOnly opens the transaction as a pure snapshot reader: it pins the
// latest committed version stamp at Begin and every Query sees exactly
// that state — repeatable reads with no locks, no latches, and no
// possibility of ErrConflict. Exec fails with ErrReadOnlyTx. Read-only
// transactions never block writers and writers never block them.
func ReadOnly() TxOption {
	return func(o *txOptions) { o.readOnly = true }
}

// Tx is an explicit transaction: a sequence of statements that commits or
// rolls back as a unit. Obtain one from Database.Begin, and always finish
// it with Commit or Rollback.
//
// Reads are snapshot-anchored: until its first update statement the
// transaction sees exactly the committed state pinned at Begin
// (repeatable reads), without taking any store-wide lock. After the
// first write, reads switch to the live pages — stable under the store's
// write latch — so statements see the transaction's own uncommitted
// writes.
//
// Writes are single-writer, as in the paper's substrate: the first update
// statement takes the store's write latch and the transaction holds it
// until Commit or Rollback. Write isolation is first-writer-wins at entity
// granularity: before it queues on the write latch, an update statement of
// a transaction that has not written yet resolves its targets on its
// snapshot and fails with ErrConflict if the latch holder has written any
// of them. The holder itself never conflicts. Transactions writing
// distinct entities — even of the same class — do not conflict; the later
// one waits for the write latch. A failed statement (constraint
// violation, type error, cancellation mid-update) aborts the whole
// transaction — there are no savepoints — after which every method
// reports ErrTxAborted wrapping the cause. Conflicts and parse errors do
// not abort.
//
// A Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	db    *Database
	txn   *dmsii.Txn  // nil for read-only transactions
	view  *dmsii.View // read view pinned at Begin; nil once the tx has written or finished
	ro    bool
	done  bool
	auto  bool  // one-statement autocommit: skip snapshot + conflict check (see execStmt)
	wrote bool  // the substrate write latch has been acquired
	err   error // sticky abort cause; effects already rolled back
}

// Begin starts an explicit transaction. Reads are pinned to the
// committed state as of Begin (see Tx); the transaction takes no locks
// until its first update statement, so an idle or read-only Tx never
// blocks other writers. Options: ReadOnly yields a pure snapshot reader.
// The context covers Begin itself only; pass a context to each statement
// and use Commit/Rollback to finish.
func (db *Database) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	return db.begin(ctx, false, opts...)
}

// begin is Begin plus the internal autocommit flag. Autocommit
// transactions execute one statement entirely under the store's write
// latch and commit immediately, so they skip the snapshot pin (they never
// read before writing) and the conflict check (they cannot interleave
// with anyone; against an open transaction they queue on the write latch
// instead of conflicting).
func (db *Database) begin(ctx context.Context, auto bool, opts ...TxOption) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var o txOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.readOnly {
		// A read-only transaction is a read view held across statements.
		return &Tx{db: db, ro: true, view: db.store.AcquireView()}, nil
	}
	txn, err := db.store.BeginSession()
	if err != nil {
		return nil, err
	}
	// The request ID carried by ctx (the client's TBegin frame) names the
	// transaction in the flight recorder and the replication stream even
	// when the commit is not explicitly traced.
	txn.SetTrace(obs.RequestID(ctx), nil)
	tx := &Tx{db: db, txn: txn, auto: auto}
	if !auto {
		tx.view = db.store.AcquireView()
	}
	return tx, nil
}

// Query executes one Retrieve statement inside the transaction. Before
// the transaction's first write it sees the snapshot pinned at Begin;
// after the first write it sees the transaction's own uncommitted writes.
func (tx *Tx) Query(ctx context.Context, dml string) (*Result, error) {
	if err := tx.usable(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := tx.query(ctx, dml)
	return tx.db.countQuery(ctx, dml, time.Since(start), res, err)
}

func (tx *Tx) query(ctx context.Context, dml string) (*Result, error) {
	g, exe := tx.reader()
	return tx.db.queryOn(ctx, dml, g, exe, nil)
}

// reader returns the published generation and the executor this
// transaction's reads run on. A transaction that has written holds the
// store write latch until it finishes, so reading the live pages is
// stable and sees its own writes; before the first write (and for
// read-only transactions) reads go through the view pinned at Begin, on
// the executor shared by every reader of that view.
func (tx *Tx) reader() (*generation, *exec.Executor) {
	g := tx.db.gen.Load()
	if tx.view == nil {
		return g, g.exe
	}
	return g, g.viewExec(tx.view)
}

// Exec executes one update statement (Insert, Modify or Delete) inside
// the transaction and returns the number of affected entities. Until the
// transaction's first write, Exec first checks the statement's targets —
// failing fast with ErrConflict if the write-latch holder has written any
// of them — then acquires the store's write latch (blocking, under ctx,
// while another transaction is in its write phase). On a statement error
// the transaction aborts: its earlier effects are rolled back and the Tx
// is dead (ErrTxAborted). Parse errors and conflicts do not abort.
func (tx *Tx) Exec(ctx context.Context, dml string) (int, error) {
	start := time.Now()
	up := tx.db.updateOf(dml)
	n, err := 0, up.err
	if err == nil {
		n, err = tx.execStmt(ctx, &up)
	}
	up.finish()
	return tx.db.countUpdate(time.Since(start), n, err)
}

// Commit durably applies the transaction. For a transaction that wrote,
// Commit enqueues the changes on the WAL, waits for the fsync of its
// commit group — concurrent committers share one fsync (group commit) —
// and publishes a new visible version stamp that later snapshots read.
// After an abort, Commit returns the sticky ErrTxAborted cause.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.releaseView()
	if tx.err != nil {
		return tx.err // effects already rolled back at abort time
	}
	if tx.txn == nil {
		return nil // read-only: nothing to apply
	}
	// A commit group that never became durable (e.g. a poisoned WAL) is
	// discarded at the store's next write-latch acquisition.
	return tx.txn.Commit()
}

// CommitTraced is Commit with a span breakdown: it returns where the
// commit spent its time — the write-latch wait, the wait
// for the group-commit leader to pick the batch up, the shared fsync, and
// the replication position the commit group published at. The trace ID is
// taken from ctx (see obs.WithRequestID); the same ID is then findable in
// the flight recorder on the primary and on every follower that applied
// the group. The trace is valid even when the commit fails (spans up to
// the failure are filled).
func (tx *Tx) CommitTraced(ctx context.Context) (*obs.CommitTrace, error) {
	ct := &obs.CommitTrace{}
	if !tx.done && tx.err == nil && tx.txn != nil {
		tx.txn.SetTrace(obs.RequestID(ctx), ct)
	}
	start := time.Now()
	err := tx.Commit()
	ct.Total = time.Since(start)
	return ct, err
}

// Rollback discards the transaction's effects. Rolling back a finished
// transaction is a no-op, so `defer tx.Rollback()` is always safe.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.releaseView()
	if tx.txn == nil {
		return nil
	}
	return tx.txn.Rollback()
}

// ReadOnly reports whether the transaction was opened with the ReadOnly
// option.
func (tx *Tx) ReadOnly() bool { return tx.ro }

// releaseView drops the transaction's reference on its read view so
// checkpoint-time version GC can reclaim the page versions it held
// visible. Idempotent for this holder: the view is shared, so a second
// release must not drop another reader's reference.
func (tx *Tx) releaseView() {
	if tx.view != nil {
		tx.view.Release()
		tx.view = nil
	}
}

// usable reports why the transaction cannot accept another statement.
func (tx *Tx) usable() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.err != nil {
		return tx.err
	}
	return nil
}

// latchBase is the conflict-check namespace for a class: the hierarchy's
// base class, lower-cased. Surrogates identify entities within it, so
// statements targeting the same entity through different subclasses
// conflict.
func latchBase(cl *catalog.Class) string {
	return strings.ToLower(cl.Base.Name)
}

// checkTargets is the conflict check at the write-latch door, run by a
// transaction that has not written yet: it resolves the statement's
// target entities on the transaction's snapshot and fails fast with
// ErrConflict if the write-latch holder has written any of them — before
// waiting on any store-wide lock and before mutating anything. It never
// waits. The statement's compiled form is prepared here, on the snapshot,
// so a miss compiles outside the write latch. Resolution errors are
// ignored here and surface from the real execution.
func (tx *Tx) checkTargets(ctx context.Context, up *updateStmt) error {
	exe := up.g.viewExec(tx.view)
	u, err := up.compiled(exe)
	if err != nil {
		return nil
	}
	cl, surrs, err := exe.UpdateTargets(ctx, u, up.params)
	if err != nil || cl == nil || len(surrs) == 0 {
		return nil
	}
	base := latchBase(cl)
	for _, s := range surrs {
		if err := tx.txn.CheckEntity(base, uint64(s)); err != nil {
			return err
		}
	}
	return nil
}

// execStmt runs one update statement inside the transaction.
func (tx *Tx) execStmt(ctx context.Context, up *updateStmt) (int, error) {
	if err := tx.usable(); err != nil {
		return 0, err
	}
	if tx.ro {
		return 0, ErrReadOnlyTx
	}
	switch up.stmt.(type) {
	case nil, *ast.InsertStmt, *ast.ModifyStmt, *ast.DeleteStmt:
		// nil: not parsed, its shape's cached entry is an update's.
	case *ast.RetrieveStmt:
		return 0, fmt.Errorf("sim: Exec wants an update statement; use Query for Retrieve")
	case *ast.BeginStmt, *ast.CommitStmt, *ast.RollbackStmt:
		return 0, fmt.Errorf("sim: use Begin/Commit/Rollback methods (or Run) for transaction control")
	default:
		return 0, fmt.Errorf("sim: unsupported statement %T", up.stmt)
	}
	// First writer wins, per entity: until its first write, a transaction
	// checks its targets against the write-latch holder's writes and fails
	// fast while the conflict is still side-effect-free. Once it holds the
	// write latch it is the holder and never conflicts. Autocommit
	// transactions check nothing: they execute and commit under the write
	// latch, and against an open transaction they queue on it (bounded by
	// ctx) instead of conflicting.
	if !tx.auto && !tx.wrote {
		if err := tx.checkTargets(ctx, up); err != nil {
			return 0, err
		}
	}
	if err := tx.txn.AcquireWrite(ctx); err != nil {
		return 0, err
	}
	if !tx.wrote {
		tx.wrote = true
		// Reads switch from the Begin-time snapshot to the live pages:
		// stable under the write latch just acquired, and the only view
		// that includes this transaction's own writes.
		tx.releaseView()
	}
	// Loaded under the write latch: a generation published from here on
	// extends this one, and its live mapper reads the same pages. A
	// statement prepared under an older generation is prepared again.
	g := tx.db.gen.Load()
	if g != up.g {
		up.lookup(g)
	}
	u, err := up.compiled(g.exe)
	if err != nil {
		return 0, tx.abort(err)
	}
	exe := g.exe
	if !tx.auto {
		// Record every entity the statement writes — its targets, EVA
		// partners, entities displaced by a UNIQUE reassignment, fresh
		// entities — for the conflict checks of queued transactions.
		exe = g.exe.View(g.mapper.WithOnWrite(func(base *catalog.Class, s value.Surrogate) {
			tx.txn.RecordWrite(latchBase(base), uint64(s))
		}))
	}
	n, err := exe.Exec(ctx, u, up.params)
	if err != nil {
		// The statement ran as the write-latch holder, which never
		// conflicts: every error here aborts.
		return 0, tx.abort(err)
	}
	return n, nil
}

// abort rolls back the whole transaction after a failed statement and
// makes the Tx sticky-fail with the cause.
func (tx *Tx) abort(cause error) error {
	tx.err = fmt.Errorf("%w: %w", ErrTxAborted, cause)
	tx.releaseView()
	if derr := tx.txn.Rollback(); derr != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", cause, derr)
	}
	return cause
}
