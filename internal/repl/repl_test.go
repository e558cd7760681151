package repl_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sim"
	"sim/client"
	"sim/internal/repl"
	"sim/internal/server"
	"sim/internal/wire"
)

const testSchema = `
Class item (
  item-no: integer unique required;
  name: string[24] );
`

// openPrimary builds a file-backed database with a publisher and a server
// in front of it, returning the pieces and the listen address.
func openPrimary(t *testing.T, ringBytes int) (*sim.Database, *repl.Publisher, string) {
	t.Helper()
	db, err := sim.Open(filepath.Join(t.TempDir(), "primary.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	pub, err := repl.NewPublisher(db, repl.Config{RingBytes: ringBytes})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Publisher: pub, ReplStatus: pub.Status})
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return db, pub, lis.Addr().String()
}

// follower bundles a replica's pieces for tests.
type follower struct {
	db   *sim.Database
	f    *repl.Follower
	srv  *server.Server
	addr string
}

// openFollower starts a replica of primaryAddr in dir, serving reads on
// its own listener.
func openFollower(t *testing.T, dir, primaryAddr string) *follower {
	t.Helper()
	db, err := sim.Open(filepath.Join(dir, "replica.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	f := startFollower(t, db, dir, primaryAddr)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{ReadOnly: true, ReplStatus: f.Status})
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &follower{db: db, f: f, srv: srv, addr: lis.Addr().String()}
}

func startFollower(t *testing.T, db *sim.Database, dir, primaryAddr string) *repl.Follower {
	t.Helper()
	f, err := repl.StartFollower(db, "", repl.FollowerConfig{
		Primary:      primaryAddr,
		Heartbeat:    50 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitReady(t *testing.T, f *repl.Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitConverged polls until the follower database answers q with the same
// bytes as the primary.
func waitConverged(t *testing.T, pdb, rdb *sim.Database, q string) {
	t.Helper()
	want, err := pdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := rdb.Query(q)
		if err == nil && got.Format() == want.Format() {
			return
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("replica never converged: %v", err)
			}
			t.Fatalf("replica never converged:\nprimary:\n%s\nreplica:\n%s", want.Format(), got.Format())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustExec(t *testing.T, db *sim.Database, stmt string) {
	t.Helper()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

// TestPublisherPositionsAndEviction exercises the publisher's ring
// directly: one position per commit (a DefineSchema included: its batch
// travels in its commit's pages, with no marker after them), batch
// delivery in order, and ErrSnapshotNeeded once the ring has evicted the
// subscriber's position.
func TestPublisherPositionsAndEviction(t *testing.T) {
	db, pub, _ := openPrimary(t, 0)
	before := pub.Latest()
	if err := db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	if got := pub.Latest(); got != before+1 {
		t.Fatalf("DefineSchema advanced the stream from %d to %d, want one position", before, got)
	}
	base := pub.Latest()
	sub, err := pub.Subscribe(pub.Epoch(), pub.Run(), base)
	if err != nil {
		t.Fatalf("subscribe at latest: %v", err)
	}
	defer pub.Unsubscribe(sub)
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf(`Insert item (item-no := %d, name := "i%d").`, i+1, i))
	}
	if pub.Latest() != base+5 {
		t.Fatalf("latest = %d, want %d", pub.Latest(), base+5)
	}
	stop := make(chan struct{})
	got := base
	for got < base+5 {
		groups, err := sub.Next(stop, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if g.Pos != got+1 {
				t.Fatalf("group gap: %d after %d", g.Pos, got)
			}
			got = g.Pos
			if len(g.Pages) == 0 {
				t.Fatalf("commit group %d has no pages", g.Pos)
			}
		}
	}

	// Wrong epoch, wrong run, and future positions need snapshots.
	if _, err := pub.Subscribe(pub.Epoch(), pub.Run()+2, base); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("wrong run: %v", err)
	}
	if _, err := pub.Subscribe(pub.Epoch()+1, pub.Run(), 0); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("wrong epoch: %v", err)
	}
	if _, err := pub.Subscribe(pub.Epoch(), pub.Run(), pub.Latest()+10); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("future position: %v", err)
	}

	// A one-byte ring keeps only the newest group: position 0 is evicted.
	db2, pub2, _ := openPrimary(t, 1)
	if err := db2.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, `Insert item (item-no := 1, name := "a").`)
	mustExec(t, db2, `Insert item (item-no := 2, name := "b").`)
	if _, err := pub2.Subscribe(pub2.Epoch(), pub2.Run(), 0); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("evicted position: %v", err)
	}
}

// TestFollowerEndToEnd is the acceptance path: a follower snapshots into
// a populated primary, serves byte-identical rows, keeps up with new
// writes, rejects writes with CodeReadOnly, and reconverges after a stop
// and restart that spans more primary writes.
func TestFollowerEndToEnd(t *testing.T) {
	pdb, pub, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i+1, i))
	}

	dir := t.TempDir()
	r := openFollower(t, dir, paddr)
	waitReady(t, r.f)
	const q = `From item Retrieve name Order By name.`
	waitConverged(t, pdb, r.db, q)

	// Live tail: new writes arrive without a new snapshot.
	for i := 20; i < 40; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i+1, i))
	}
	waitConverged(t, pdb, r.db, q)

	// Writes to the replica are refused with the dedicated code.
	rc, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = rc.Exec(`Insert item (item-no := 999, name := "nope").`)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeReadOnly {
		t.Fatalf("replica write: %v, want CodeReadOnly", err)
	}
	if _, err := rc.Query(q); err != nil {
		t.Fatalf("replica read: %v", err)
	}

	// The primary sees the follower's progress.
	st := pub.Status()
	if st.Role != "primary" || len(st.Replicas) != 1 {
		t.Fatalf("primary status: %+v", st)
	}

	// Stop the follower, write more, restart: the tail (still within the
	// ring) resumes from the position in its database without a snapshot.
	r.f.Close()
	for i := 40; i < 60; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i+1, i))
	}
	f2 := startFollower(t, r.db, dir, paddr)
	defer f2.Close()
	waitConverged(t, pdb, r.db, q)
	if got := f2.Status(); got.Role != "replica" {
		t.Fatalf("follower status role = %q", got.Role)
	}
}

// TestFollowerResnapshot starves the ring so a lagging follower must be
// re-seeded with a fresh snapshot mid-stream, and a stopped follower must
// be re-seeded on reconnect.
func TestFollowerResnapshot(t *testing.T) {
	pdb, pub, paddr := openPrimary(t, 1) // one-byte ring: everything evicts
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 1, name := "first").`)

	dir := t.TempDir()
	r := openFollower(t, dir, paddr)
	waitReady(t, r.f)
	const q = `From item Retrieve name Order By name.`
	waitConverged(t, pdb, r.db, q)

	// Disconnect, let the ring evict many positions, reconnect.
	r.f.Close()
	for i := 2; i <= 30; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i, i))
	}
	f2 := startFollower(t, r.db, dir, paddr)
	defer f2.Close()
	waitConverged(t, pdb, r.db, q)
	if pub.Latest() == 0 {
		t.Fatal("publisher lost its position")
	}
}

// TestSchemaChangeReplicates attaches a follower to an empty primary and
// defines the schema afterwards: the follower must reload its catalog
// from the replicated pages and serve rows inserted under the new schema.
func TestSchemaChangeReplicates(t *testing.T) {
	pdb, _, paddr := openPrimary(t, 0)
	dir := t.TempDir()
	r := openFollower(t, dir, paddr)
	defer r.f.Close()
	waitReady(t, r.f)

	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "late %d").`, i+1, i))
	}
	waitConverged(t, pdb, r.db, `From item Retrieve name Order By name.`)
}

// TestReplStatusOverWire exercises the STATS-style status request through
// the client on both roles.
func TestReplStatusOverWire(t *testing.T) {
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := openFollower(t, dir, paddr)
	defer r.f.Close()
	waitReady(t, r.f)

	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	st, err := pc.ReplStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || len(st.Replicas) != 1 {
		t.Fatalf("primary ReplStatus: %+v", st)
	}
	rc, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	st, err = rc.ReplStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" || len(st.Replicas) != 1 || st.Replicas[0].Addr != paddr {
		t.Fatalf("replica ReplStatus: %+v", st)
	}
}

// TestMultiClientSpraysReads routes reads through replicas and writes to
// the primary, and fails over to the primary when every replica is gone.
func TestMultiClientSpraysReads(t *testing.T) {
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 1, name := "one").`)

	dir1, dir2 := t.TempDir(), t.TempDir()
	r1 := openFollower(t, dir1, paddr)
	defer r1.f.Close()
	r2 := openFollower(t, dir2, paddr)
	defer r2.f.Close()
	waitReady(t, r1.f)
	waitReady(t, r2.f)
	const q = `From item Retrieve name Order By name.`
	waitConverged(t, pdb, r1.db, q)
	waitConverged(t, pdb, r2.db, q)

	m, err := client.DialMulti([]string{paddr, r1.addr, r2.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want, _ := pdb.Query(q)
	for i := 0; i < 6; i++ {
		r, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != want.Format() {
			t.Fatalf("multi read %d diverged", i)
		}
	}
	// Writes go to the primary even though replicas are in the pool.
	if _, err := m.Exec(`Insert item (item-no := 2, name := "two").`); err != nil {
		t.Fatalf("multi write: %v", err)
	}
	waitConverged(t, pdb, r1.db, q)
	waitConverged(t, pdb, r2.db, q)
	want, _ = pdb.Query(q)

	// Kill both replica servers: reads must fail over to the primary.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r1.srv.Shutdown(ctx)
	r2.srv.Shutdown(ctx)
	res, err := m.Query(q)
	if err != nil {
		t.Fatalf("failover to primary: %v", err)
	}
	if res.Format() != want.Format() {
		t.Fatal("failover read diverged")
	}
}
