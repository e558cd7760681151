package server_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"sim/client"
	"sim/internal/server"
	"sim/internal/wire"
)

// helloAt performs a raw Hello exchange claiming protocol version v and
// returns the response frame.
func helloAt(t *testing.T, addr string, v byte) (wire.Type, []byte) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc, wire.THello, append([]byte(wire.Magic), v)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

// TestHandshakeVersionCompat: the server accepts exactly its own protocol
// version, 4, and echoes it; versions 3 and 5 are refused with
// CodeProtocol.
func TestHandshakeVersionCompat(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})

	typ, payload := helloAt(t, addr, 4)
	if typ != wire.THello {
		t.Fatalf("version 4: response %v, want Hello", typ)
	}
	if got, err := wire.DecodeHello(payload); err != nil || got != 4 {
		t.Fatalf("version 4: server echoed %d (%v), want 4", got, err)
	}
	for _, v := range []byte{3, 5} {
		typ, payload := helloAt(t, addr, v)
		if typ != wire.TError {
			t.Fatalf("version %d: response %v, want TError", v, typ)
		}
		e, err := wire.DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		if e.Code != wire.CodeProtocol {
			t.Fatalf("version %d: code %v, want CodeProtocol", v, e.Code)
		}
	}
}

// TestReadOnlyTxOverWire: a ReadOnly Begin serves snapshot queries,
// refuses Exec with CodeReadOnly without dying, and commits cleanly.
func TestReadOnlyTxOverWire(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	tx, err := c.Begin(ctx, client.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !tx.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	r, err := tx.Query(ctx, `From student Retrieve name.`)
	if err != nil {
		t.Fatal(err)
	}
	before := r.NumRows()

	// A write committed elsewhere stays invisible to the pinned snapshot.
	// (On a second connection: requests on the transaction's own Conn
	// join the open transaction server-side.)
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Exec(`Insert student (name := "Late, Arrival", soc-sec-no := 300000001, student-nbr := 5001).`); err != nil {
		t.Fatal(err)
	}
	r, err = tx.Query(ctx, `From student Retrieve name.`)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != before {
		t.Fatalf("pinned snapshot saw a later commit: %d rows, want %d", r.NumRows(), before)
	}

	var we *wire.Error
	if _, err := tx.Exec(ctx, `Insert student (name := "No", soc-sec-no := 300000002, student-nbr := 5002).`); !errors.As(err, &we) || we.Code != wire.CodeReadOnly {
		t.Fatalf("Exec in read-only tx: %v, want CodeReadOnly", err)
	}
	// The refusal did not kill the transaction.
	if _, err := tx.Query(ctx, `From student Retrieve name.`); err != nil {
		t.Fatalf("query after refused write: %v", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestMultiRoutesReadOnlyTxToReplica: DialMulti sends ReadOnly
// transactions to the replica rotation and read-write ones to the
// primary. The two servers intentionally hold different data so the
// row count proves which node answered.
func TestMultiRoutesReadOnlyTxToReplica(t *testing.T) {
	primary := testDB(t)
	_, paddr := startServer(t, primary, server.Config{})
	replica := testDB(t)
	if _, err := replica.Exec(`Insert student (name := "Replica, Only", soc-sec-no := 300000009, student-nbr := 5009).`); err != nil {
		t.Fatal(err)
	}
	_, raddr := startServer(t, replica, server.Config{ReadOnly: true})

	m, err := client.DialMulti([]string{paddr, raddr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()

	countVia := func(tx *client.Tx) int {
		t.Helper()
		r, err := tx.Query(ctx, `From student Retrieve name.`)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return r.NumRows()
	}
	rw, err := m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	primaryRows := countVia(rw)
	ro, err := m.Begin(ctx, client.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if got := countVia(ro); got != primaryRows+1 {
		t.Fatalf("read-only tx saw %d rows, want the replica's %d — routed to the wrong node", got, primaryRows+1)
	}
}

// TestReadOnlyTxOnReplica: a read-only server (replica role) accepts
// ReadOnly Begin/Query/Commit but still refuses a read-write Begin.
func TestReadOnlyTxOnReplica(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{ReadOnly: true})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	var we *wire.Error
	if _, err := c.Begin(ctx); !errors.As(err, &we) || we.Code != wire.CodeReadOnly {
		t.Fatalf("read-write Begin on replica: %v, want CodeReadOnly", err)
	}

	tx, err := c.Begin(ctx, client.ReadOnly())
	if err != nil {
		t.Fatalf("read-only Begin on replica: %v", err)
	}
	r, err := tx.Query(ctx, `From student Retrieve name.`)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() == 0 {
		t.Fatal("no rows through the replica's read-only tx")
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("read-only commit on replica: %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("session after read-only tx: %v", err)
	}
}
