package repl_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sim"
	"sim/client"
	"sim/internal/repl"
	"sim/internal/server"
	"sim/internal/wire"
)

const itemsQ = `From item Retrieve item-no, name Order By item-no.`

// testNode is one simserve process in miniature: a file-backed database,
// the production repl.Node that owns its role, and a server in front of
// both. Restarting it on the same directory replays exactly what a
// crashed simserve process would find on disk.
type testNode struct {
	path string
	db   *sim.Database
	node *repl.Node
	srv  *server.Server
	addr string
}

// startNode opens (or reopens) the node whose database is dir/name, in
// the role cfg.ReplicaOf gives it. addr may be "" for a fresh listener or
// a previous address to rebind after a restart. The node advertises the
// address it listens on unless cfg.Advertise says otherwise, and its
// followers use fast heartbeats and reconnects.
func startNode(t *testing.T, dir, name, addr string, cfg repl.NodeConfig) *testNode {
	t.Helper()
	n := &testNode{path: filepath.Join(dir, name)}
	db, err := sim.Open(n.path, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.db = db
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	n.addr = lis.Addr().String()
	cfg.Path = n.path
	if cfg.Advertise == "" {
		cfg.Advertise = n.addr
	}
	cfg.Follower = repl.FollowerConfig{
		Heartbeat:    50 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	}
	if n.node, err = repl.StartNode(db, cfg); err != nil {
		t.Fatal(err)
	}
	n.srv = server.New(db, server.Config{Node: n.node})
	go n.srv.Serve(lis)
	t.Cleanup(n.kill)
	return n
}

// seedEpoch gives dir's primary.db the term epoch before a node starts on
// it, as a promotion elsewhere would have.
func seedEpoch(t *testing.T, dir string, epoch uint64) {
	t.Helper()
	db, err := sim.Open(filepath.Join(dir, "primary.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.AdvanceEpoch(db, epoch); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// startPrimaryNode opens (or reopens) a born primary in dir.
func startPrimaryNode(t *testing.T, dir, addr string) *testNode {
	return startNode(t, dir, "primary.db", addr, repl.NodeConfig{})
}

// startReplicaNode starts a follower of primaryAddr in a fresh directory
// and waits for its first catch-up.
func startReplicaNode(t *testing.T, primaryAddr string) *testNode {
	r := startNode(t, t.TempDir(), "replica.db", "", repl.NodeConfig{ReplicaOf: primaryAddr})
	waitNodeReady(t, r.node)
	return r
}

// kill is kill -9: no drain, no goodbye. Safe to call twice.
func (n *testNode) kill() {
	n.srv.Close()
	n.node.Close()
	n.db.Close()
}

// waitNodeReady polls until the node reports ready at zero lag.
func waitNodeReady(t *testing.T, n *repl.Node) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !n.Ready(0) {
		if time.Now().After(deadline) {
			t.Fatal("node never caught up with its primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func dialClient(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.DialConfig(addr, client.Config{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantFenced asserts an Exec against addr is refused with CodeFenced.
func wantFenced(t *testing.T, addr string) {
	t.Helper()
	c := dialClient(t, addr)
	_, err := c.Exec(`Insert item (item-no := 9999, name := "rogue").`)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeFenced {
		t.Fatalf("write on fenced node: err = %v, want CodeFenced", err)
	}
}

// TestFailoverChaosMatrix kills the primary at every commit boundary of a
// workload, promotes the follower, and asserts the acknowledged-commit
// guarantee: every commit the primary acknowledged while the follower was
// caught up is served byte-identically by the promoted node, the promoted
// node accepts new writes under a strictly higher epoch, the restarted
// old primary is fenced (immediately by the fencer, durably across its
// next restart), rejoins as a follower, and converges with clean storage.
func TestFailoverChaosMatrix(t *testing.T) {
	const commits = 4
	for k := 0; k <= commits; k++ {
		t.Run(fmt.Sprintf("kill-after-%d-commits", k), func(t *testing.T) {
			pdir := t.TempDir()
			p := startPrimaryNode(t, pdir, "")
			if err := p.db.DefineSchema(testSchema); err != nil {
				t.Fatal(err)
			}
			r := startReplicaNode(t, p.addr)

			for i := 1; i <= k; i++ {
				mustExec(t, p.db, fmt.Sprintf(`Insert item (item-no := %d, name := "commit %d").`, i, i))
			}
			// The sync bound of the guarantee (DESIGN.md §14): the kill
			// lands at a boundary where the follower is caught up, so every
			// acknowledged commit is also shipped. Commits acknowledged but
			// unshipped are exercised by TestDivergedOldPrimaryRejoins.
			waitConverged(t, p.db, r.db, itemsQ)
			want, err := p.db.Query(itemsQ)
			if err != nil {
				t.Fatal(err)
			}
			oldEpoch := p.node.Status().Epoch
			p.kill()

			// Promote the follower through the wire, as an operator would.
			rc := dialClient(t, r.addr)
			newEpoch, err := rc.Promote(context.Background())
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			if newEpoch <= oldEpoch {
				t.Fatalf("promoted epoch %d, want > %d", newEpoch, oldEpoch)
			}
			// Byte-identical acknowledged commits, before any new write.
			got, err := r.db.Query(itemsQ)
			if err != nil {
				t.Fatal(err)
			}
			if got.Format() != want.Format() {
				t.Fatalf("acknowledged commits lost at boundary %d:\nwant:\n%s\ngot:\n%s",
					k, want.Format(), got.Format())
			}
			// Promotion is idempotent and the new primary accepts writes.
			if again, err := rc.Promote(context.Background()); err != nil || again != newEpoch {
				t.Fatalf("re-promote: epoch %d err %v, want %d", again, err, newEpoch)
			}
			if _, err := rc.Exec(fmt.Sprintf(`Insert item (item-no := %d, name := "after failover").`, 1000+k)); err != nil {
				t.Fatalf("write on promoted node: %v", err)
			}

			// The old primary restarts on its old files. Until the fencer
			// reaches it, it is the split-brain risk; deliver the notice the
			// promoted node's fencer would deliver, then prove no write
			// can land there — now, and after yet another restart.
			p2 := startPrimaryNode(t, pdir, "")
			if err := repl.Fence(p2.addr, newEpoch, r.addr, 5*time.Second); err != nil {
				t.Fatalf("fence restarted primary: %v", err)
			}
			wantFenced(t, p2.addr)
			// The fence notice also told it where the new primary lives: it
			// rejoins as a follower, discarding any divergence via
			// re-snapshot, and converges on the post-failover state.
			waitConverged(t, r.db, p2.db, itemsQ)
			rep, err := p2.db.Scrub()
			if err != nil || !rep.OK() {
				t.Fatalf("rejoined old primary scrub: %v %v", err, rep)
			}
			addr2 := p2.addr
			p2.kill()

			// Durable fencing: a second restart finds the witnessed epoch in
			// its database and starts fenced without anyone telling it again.
			p3 := startPrimaryNode(t, pdir, addr2)
			wantFenced(t, p3.addr)
			// It follows nobody until told: an operator's \retarget at the
			// fencing epoch sends it back to the new primary.
			if err := repl.Fence(p3.addr, newEpoch, r.addr, 5*time.Second); err != nil {
				t.Fatalf("retarget durably fenced primary: %v", err)
			}
			if _, err := rc.Exec(fmt.Sprintf(`Insert item (item-no := %d, name := "after restart").`, 2000+k)); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, r.db, p3.db, itemsQ)
			p3.kill()
		})
	}
}

// TestSplitBrainSingleWriter promotes the follower while the old primary
// is still alive and reachable — the worst case — and asserts exactly one
// side accepts writes once the fencing notice lands.
func TestSplitBrainSingleWriter(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	mustExec(t, p.db, `Insert item (item-no := 1, name := "before").`)
	waitConverged(t, p.db, r.db, itemsQ)

	rc := dialClient(t, r.addr)
	newEpoch, err := rc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote with live primary: %v", err)
	}
	if err := repl.Fence(p.addr, newEpoch, r.addr, 5*time.Second); err != nil {
		t.Fatalf("fence live primary: %v", err)
	}

	// Exactly one writer: the old primary answers CodeFenced, the new one
	// commits.
	wantFenced(t, p.addr)
	if _, err := rc.Exec(`Insert item (item-no := 2, name := "after").`); err != nil {
		t.Fatalf("write on new primary: %v", err)
	}
	// A stale fencing notice (the old epoch) cannot demote the new primary.
	err = repl.Fence(r.addr, newEpoch, p.addr, 5*time.Second)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeFenced {
		t.Fatalf("stale fence on new primary: err = %v, want CodeFenced refusal", err)
	}
}

// TestPassiveFencing exercises the hello vector: a primary that receives
// a replication subscription claiming a higher epoch must conclude a
// newer primary exists and fence itself without any Retarget frame.
func TestPassiveFencing(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}

	nc, err := net.DialTimeout("tcp", p.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc, wire.THello, wire.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc, 0); err != nil || typ != wire.THello {
		t.Fatalf("handshake: type %v err %v", typ, err)
	}
	hello := wire.ReplHello{Epoch: p.node.Status().Epoch + 7, Run: 1, Pos: 3}
	if err := wire.WriteFrame(nc, wire.TReplHello, wire.EncodeReplHello(hello)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TError {
		t.Fatalf("higher-epoch hello answered %v, want TError", typ)
	}
	if e, derr := wire.DecodeError(payload); derr != nil || e.Code != wire.CodeFenced {
		t.Fatalf("higher-epoch hello error = %v (decode %v), want CodeFenced", e, derr)
	}
	wantFenced(t, p.addr)
}

// TestDivergedOldPrimaryRejoins covers the tail the guarantee excludes:
// commits the old primary acknowledged while its follower was
// disconnected exist nowhere else, the follower is promoted without them,
// and the old primary's rejoin discards them via re-snapshot rather than
// resurrecting a divergent history.
func TestDivergedOldPrimaryRejoins(t *testing.T) {
	pdir := t.TempDir()
	p := startPrimaryNode(t, pdir, "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	mustExec(t, p.db, `Insert item (item-no := 1, name := "shipped").`)
	waitConverged(t, p.db, r.db, itemsQ)

	// Cut replication (point the follower where nothing listens), then
	// commit a tail only the primary ever sees.
	if err := r.node.Retarget(0, deadAddr(t)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.db, `Insert item (item-no := 2, name := "diverged").`)
	mustExec(t, p.db, `Insert item (item-no := 3, name := "diverged too").`)
	p.kill()

	rc := dialClient(t, r.addr)
	newEpoch, err := rc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := rc.Exec(`Insert item (item-no := 10, name := "new history").`); err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}

	p2 := startPrimaryNode(t, pdir, "")
	// Before fencing, the restarted old primary still holds its diverged
	// tail — prove the rejoin actually discards something.
	if got, err := p2.db.Query(itemsQ); err != nil || got.NumRows() != 3 {
		t.Fatalf("restarted old primary rows = %v err %v, want the 3-row diverged history", got, err)
	}
	if err := repl.Fence(p2.addr, newEpoch, r.addr, 5*time.Second); err != nil {
		t.Fatalf("fence: %v", err)
	}
	waitConverged(t, r.db, p2.db, itemsQ)
	got, err := p2.db.Query(itemsQ)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Format(); strings.Contains(s, "diverged") {
		t.Fatalf("diverged commit survived the rejoin:\n%s", s)
	}
	if rep, err := p2.db.Scrub(); err != nil || !rep.OK() {
		t.Fatalf("scrub after rejoin: %v %v", err, rep)
	}
}

// TestDialMultiWriteFailover proves the client side of the failover
// story: the same Multi handle keeps writing after a promotion with no
// reconfiguration, while a transaction opened on the dead primary fails
// with ErrTxLost instead of silently moving.
func TestDialMultiWriteFailover(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)

	m, err := client.DialMulti([]string{p.addr, r.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Exec(`Insert item (item-no := 1, name := "before").`); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p.db, r.db, itemsQ)

	tx, err := m.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.kill()
	rc := dialClient(t, r.addr)
	if _, err := rc.Promote(context.Background()); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The open transaction was pinned to the dead primary: fatal, never
	// redirected (the server may have applied statements before dying).
	if _, err := tx.Exec(context.Background(), `Insert item (item-no := 99, name := "lost").`); !errors.Is(err, client.ErrTxLost) {
		t.Fatalf("tx on dead primary: err = %v, want ErrTxLost", err)
	}
	// A plain write re-probes the topology, adopts the promoted node, and
	// lands — same handle, no reconfiguration.
	if _, err := m.Exec(`Insert item (item-no := 2, name := "after failover").`); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	got, err := r.db.Query(itemsQ)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("promoted node rows = %d, want 2:\n%s", got.NumRows(), got.Format())
	}
	// A fresh transaction follows the promotion too.
	tx2, err := m.Begin(context.Background())
	if err != nil {
		t.Fatalf("begin after failover: %v", err)
	}
	if _, err := tx2.Exec(context.Background(), `Insert item (item-no := 3, name := "txn after failover").`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reads keep flowing through the same handle as well.
	if _, err := m.Query(itemsQ); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
}

// TestMultiHealthEjection kills a replica under a Multi and asserts reads
// keep succeeding (failing over past the dead node), then revives the
// replica and asserts the background probe re-admits it to the rotation.
func TestMultiHealthEjection(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	mustExec(t, p.db, `Insert item (item-no := 1, name := "one").`)
	waitConverged(t, p.db, r.db, itemsQ)

	m, err := client.DialMulti([]string{p.addr, r.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Replica down: every read still succeeds, served by the primary.
	r.srv.Close()
	for i := 0; i < 6; i++ {
		if _, err := m.Query(itemsQ); err != nil {
			t.Fatalf("read %d with dead replica: %v", i, err)
		}
	}

	// Revive the replica on its old address; the ejected node's probe
	// must re-admit it, after which reads land there again.
	lis, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(r.db, server.Config{Node: r.node})
	go srv2.Serve(lis)
	t.Cleanup(func() { srv2.Close() })

	probe := dialClient(t, r.addr)
	base, err := probe.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Query(itemsQ); err != nil {
			t.Fatalf("read during re-admission: %v", err)
		}
		st, err := probe.ServerStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Each loop adds one request of our own (the stats call); anything
		// beyond that means the Multi's traffic reaches the replica again.
		if st.Requests >= base.Requests+2 {
			break
		}
		base = st // our own probe traffic moves the floor
		if time.Now().After(deadline) {
			t.Fatal("revived replica never re-admitted to the read rotation")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRepromoteAfterFenceRefused pins the resurrection hazard: a node
// promoted to epoch E and then fenced by E' > E must not re-open writes
// at E when the (idempotent) promotion is retried — the cached publisher
// is sealed, its epoch is stale, and anything it accepted would
// replicate nowhere.
func TestRepromoteAfterFenceRefused(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	mustExec(t, p.db, `Insert item (item-no := 1, name := "before").`)
	waitConverged(t, p.db, r.db, itemsQ)
	p.kill()

	rc := dialClient(t, r.addr)
	newEpoch, err := rc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	// A second failover elsewhere fences the promoted node at a higher
	// epoch; the notice carries no rejoin address.
	if err := repl.Fence(r.addr, newEpoch+1, "", 5*time.Second); err != nil {
		t.Fatalf("fence promoted node: %v", err)
	}
	wantFenced(t, r.addr)
	// The retried promotion answers CodeFenced instead of resurrecting the
	// stale epoch, and the node stays fenced.
	_, err = rc.Promote(context.Background())
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeFenced {
		t.Fatalf("re-promote on fenced node: err = %v, want CodeFenced", err)
	}
	wantFenced(t, r.addr)
}

// TestPromotedReplicaFencedRejoins drives the second failover end to end:
// a replica promoted to primary is itself fenced by an even higher epoch.
// It must persist the witnessed epoch in its own database, and — because
// its original follower was closed by Promote — rejoin the newer primary
// with a fresh follower, discarding its post-promotion history via
// re-snapshot.
func TestPromotedReplicaFencedRejoins(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	mustExec(t, p.db, `Insert item (item-no := 1, name := "shared").`)
	waitConverged(t, p.db, r.db, itemsQ)
	p.kill()

	rc := dialClient(t, r.addr)
	newEpoch, err := rc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	// History only the short-lived second primary ever sees.
	if _, err := rc.Exec(`Insert item (item-no := 2, name := "doomed").`); err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}

	// A newer primary appears at a strictly higher epoch and fences the
	// promoted node, naming itself as the rejoin target.
	p2dir := t.TempDir()
	seedEpoch(t, p2dir, newEpoch+1)
	p2 := startPrimaryNode(t, p2dir, "")
	if err := p2.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p2.db, `Insert item (item-no := 1, name := "shared").`)
	mustExec(t, p2.db, `Insert item (item-no := 3, name := "newest history").`)
	if err := repl.Fence(r.addr, newEpoch+1, p2.addr, 5*time.Second); err != nil {
		t.Fatalf("fence promoted node: %v", err)
	}
	wantFenced(t, r.addr)
	// Durable witness: the replica's own record holds the higher epoch.
	if st, err := r.db.NodeState(); err != nil || st.MaxSeen < newEpoch+1 {
		t.Fatalf("MaxSeen = %d (err %v) after fence, want >= %d", st.MaxSeen, err, newEpoch+1)
	}
	// The fenced ex-primary converges on the newer primary's history; its
	// own "doomed" tail is discarded by the re-snapshot.
	waitConverged(t, p2.db, r.db, itemsQ)
	got, err := r.db.Query(itemsQ)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Format(); strings.Contains(s, "doomed") {
		t.Fatalf("post-promotion commit survived the second failover:\n%s", s)
	}
}

// TestRetargetClosedFollower pins the contract the rejoin path relies on:
// a closed follower has no reconnect loop left, so Retarget must error —
// callers start a fresh follower instead of logging a no-op.
func TestRetargetClosedFollower(t *testing.T) {
	dir := t.TempDir()
	db, err := sim.Open(filepath.Join(dir, "replica.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	f, err := repl.StartFollower(db, "", repl.FollowerConfig{
		Primary:      "127.0.0.1:1",
		ReconnectMin: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Retarget("127.0.0.1:2"); err != nil {
		t.Fatalf("retarget live follower: %v", err)
	}
	f.Close()
	if err := f.Retarget("127.0.0.1:3"); err == nil {
		t.Fatal("retarget on a closed follower succeeded; want an error")
	}
}

// TestEpochRecord pins the ClaimEpoch/WitnessEpoch/AdvanceEpoch
// lifecycle the failover protocol is built on, over the database's own
// record, with a restart between every step.
func TestEpochRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.db")
	reopen := func(db *sim.Database) *sim.Database {
		t.Helper()
		if db != nil {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		db, err := sim.Open(path, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := reopen(nil)
	defer func() { db.Close() }()
	epoch, fencedBy, err := repl.ClaimEpoch(db)
	if err != nil || epoch != 1 || fencedBy != 0 {
		t.Fatalf("fresh claim = (%d, %d, %v), want (1, 0, nil)", epoch, fencedBy, err)
	}
	// A plain restart keeps the term: epochs advance on promotion only.
	db = reopen(db)
	if epoch, fencedBy, err = repl.ClaimEpoch(db); err != nil || epoch != 1 || fencedBy != 0 {
		t.Fatalf("re-claim = (%d, %d, %v), want (1, 0, nil)", epoch, fencedBy, err)
	}
	if err := repl.WitnessEpoch(db, 5); err != nil {
		t.Fatal(err)
	}
	// Witnessing a higher term makes every later claim start fenced.
	db = reopen(db)
	if epoch, fencedBy, err = repl.ClaimEpoch(db); err != nil || epoch != 1 || fencedBy != 5 {
		t.Fatalf("claim after witness = (%d, %d, %v), want (1, 5, nil)", epoch, fencedBy, err)
	}
	// Witnessing a lower term than already seen is a no-op.
	if err := repl.WitnessEpoch(db, 3); err != nil {
		t.Fatal(err)
	}
	db = reopen(db)
	if st, err := db.NodeState(); err != nil || st.MaxSeen != 5 {
		t.Fatalf("MaxSeen = %d (err %v) after lower witness, want 5", st.MaxSeen, err)
	}
	// Promotion advances past everything witnessed.
	if err := repl.AdvanceEpoch(db, 6); err != nil {
		t.Fatal(err)
	}
	db = reopen(db)
	if epoch, fencedBy, err = repl.ClaimEpoch(db); err != nil || epoch != 6 || fencedBy != 0 {
		t.Fatalf("claim after advance = (%d, %d, %v), want (6, 0, nil)", epoch, fencedBy, err)
	}
}
