package client

import (
	"context"
	"errors"
	"fmt"

	"sim"
	"sim/internal/obs"
	"sim/internal/wire"
)

// Transaction errors.
var (
	// ErrTxLost reports that the connection carrying an open transaction
	// broke. Server-side transaction state is per-connection, so the
	// transaction is gone — the server rolled it back when the connection
	// died — and no operation on it is retried: transparently redialing
	// and re-sending could double-apply a commit. Begin a new transaction
	// and re-run it.
	ErrTxLost = errors.New("client: connection lost mid-transaction")

	// ErrTxFinished reports use of a transaction after Commit or Rollback.
	ErrTxFinished = errors.New("client: transaction already finished")
)

// Tx is an explicit transaction on a server connection (wire frames
// TBegin/TCommit/TRollback). It is pinned to the TCP connection it was
// begun on: the transparent redial-and-retry machinery is disabled for
// transaction operations, and if the connection breaks every later
// operation fails fatally with ErrTxLost (see above). While a Tx is open,
// other requests on the same Conn join the transaction server-side — use
// a dedicated Conn per transaction under concurrency.
//
// A Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	c    *Conn
	gen  uint64 // connection generation the transaction is pinned to
	ro   bool
	done bool
}

// TxOption configures a transaction opened with Begin.
type TxOption func(*txOptions)

type txOptions struct{ readOnly bool }

// ReadOnly marks the transaction read-only: the server pins a snapshot
// at Begin and every Query sees that frozen state; Exec is refused with
// wire.CodeReadOnly. Read-only transactions never conflict and never
// block writers, and — unlike read-write transactions — a replica or a
// fenced primary can serve them (see Multi.Begin).
func ReadOnly() TxOption {
	return func(o *txOptions) { o.readOnly = true }
}

// Begin opens a transaction on this connection. The request itself may
// transparently redial (no transaction exists yet, so the retry is
// idempotent); once Begin returns, the transaction is pinned to the
// connection that carried it.
func (c *Conn) Begin(ctx context.Context, opts ...TxOption) (*Tx, error) {
	var o txOptions
	for _, opt := range opts {
		opt(&o)
	}
	payload := req(nil)
	if o.readOnly {
		payload = wire.EncodeBegin(obs.NewRequestID(), wire.BeginReadOnly)
	}
	if _, err := c.call(ctx, wire.TBegin, payload, wire.TOK, true); err != nil {
		return nil, err
	}
	return &Tx{c: c, gen: c.currentGen(), ro: o.readOnly}, nil
}

// ReadOnly reports whether the transaction was opened with the ReadOnly
// option.
func (tx *Tx) ReadOnly() bool { return tx.ro }

// Query executes one Retrieve statement inside the transaction.
func (tx *Tx) Query(ctx context.Context, dml string) (*sim.Result, error) {
	resp, err := tx.op(ctx, wire.TQuery, req([]byte(dml)), wire.TResult)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResult(resp)
}

// Exec executes one update statement inside the transaction and returns
// the affected-entity count. A server-side statement failure aborts the
// transaction (see sim.Tx); a conflict (wire.CodeConflict) does not. Only
// a transaction that has not written yet can conflict: its statement
// targets an entity written by the server's current write-latch holder,
// and it may retry once that holder finishes.
func (tx *Tx) Exec(ctx context.Context, dml string) (int, error) {
	resp, err := tx.op(ctx, wire.TExec, req([]byte(dml)), wire.TExecOK)
	if err != nil {
		return 0, err
	}
	return wire.DecodeCount(resp)
}

// Commit durably applies the transaction. It is never retried: a
// connection failure after the commit frame leaves this process means
// the server may or may not have committed, and the fatal ErrTxLost
// reports exactly that uncertainty.
func (tx *Tx) Commit(ctx context.Context) error {
	if tx.done {
		return ErrTxFinished
	}
	tx.done = true
	_, err := tx.c.txCall(ctx, tx.gen, wire.TCommit, req(nil), wire.TOK)
	return err
}

// TraceCommit is Commit with a server-side span breakdown: it returns
// where the commit spent its time (the write-latch wait, the wait for the
// group-commit leader, the shared fsync) plus the commit group's size and
// replication position. The request ID in the returned CommitInfo names
// this commit in the flight recorder of the primary and of every follower
// that applied the group.
func (tx *Tx) TraceCommit(ctx context.Context) (wire.CommitInfo, error) {
	if tx.done {
		return wire.CommitInfo{}, ErrTxFinished
	}
	tx.done = true
	resp, err := tx.c.txCall(ctx, tx.gen, wire.TTraceCommit, req(nil), wire.TCommitTraced)
	if err != nil {
		return wire.CommitInfo{}, err
	}
	return wire.DecodeCommitInfo(resp)
}

// Rollback discards the transaction. A lost connection still reports
// ErrTxLost, but nothing is left open: the server rolls back a
// transaction whose connection died.
func (tx *Tx) Rollback(ctx context.Context) error {
	if tx.done {
		return nil
	}
	tx.done = true
	_, err := tx.c.txCall(ctx, tx.gen, wire.TRollback, req(nil), wire.TOK)
	return err
}

// op runs one in-transaction statement request.
func (tx *Tx) op(ctx context.Context, t wire.Type, payload []byte, want wire.Type) ([]byte, error) {
	if tx.done {
		return nil, ErrTxFinished
	}
	return tx.c.txCall(ctx, tx.gen, t, payload, want)
}

// currentGen reads the connection generation under the request lock.
func (c *Conn) currentGen() uint64 {
	c.reqMu <- struct{}{}
	defer func() { <-c.reqMu }()
	return c.gen
}

// txCall performs one request pinned to connection generation gen: no
// redial, no retry. Any transport failure — or a generation mismatch,
// meaning some other request already redialed — closes the transaction's
// window and surfaces fatal ErrTxLost.
func (c *Conn) txCall(ctx context.Context, gen uint64, t wire.Type, payload []byte, want wire.Type) ([]byte, error) {
	select {
	case c.reqMu <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.reqMu }()
	if c.nc == nil && c.addr == "" {
		return nil, errClosed
	}
	lost := func(cause error) error {
		err := ErrTxLost
		if cause != nil {
			err = fmt.Errorf("%w: %v", ErrTxLost, cause)
		}
		return &NetError{Op: "transaction", Addr: c.addr, Retryable: false, Err: err}
	}
	if c.nc == nil || c.gen != gen {
		return nil, lost(nil)
	}
	rt, resp, _, err := c.attempt(ctx, t, payload)
	if err != nil {
		c.nc.Close()
		c.nc, c.reused = nil, false
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, lost(err)
	}
	switch rt {
	case want:
		return resp, nil
	case wire.TError:
		e, derr := wire.DecodeError(resp)
		if derr != nil {
			return nil, derr
		}
		return nil, e
	default:
		return nil, fmt.Errorf("client: unexpected %v response to %v", rt, t)
	}
}
