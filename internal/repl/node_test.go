package repl_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"sim/internal/repl"
	"sim/internal/wire"
)

// TestRejoinedPrimaryPromotes fails over from A to B and back: a born
// primary that was fenced and rejoined the new primary as its follower is
// promotable like any follower, so a two-node cluster survives a second
// failover. A must claim an epoch above B's and accept writes.
func TestRejoinedPrimaryPromotes(t *testing.T) {
	adir := t.TempDir()
	a := startPrimaryNode(t, adir, "")
	if err := a.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, a.db, `Insert item (item-no := 1, name := "on A").`)
	b := startReplicaNode(t, a.addr)
	waitConverged(t, a.db, b.db, itemsQ)
	aAddr := a.addr
	a.kill()

	bc := dialClient(t, b.addr)
	epochB, err := bc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote B: %v", err)
	}
	if _, err := bc.Exec(`Insert item (item-no := 2, name := "on B").`); err != nil {
		t.Fatalf("write on B: %v", err)
	}

	// A restarts at its old address; B's fencer demotes it and names B as
	// its rejoin target, so A converges on B's history as a follower.
	a2 := startPrimaryNode(t, adir, aAddr)
	waitConverged(t, b.db, a2.db, itemsQ)
	wantFenced(t, a2.addr)
	b.kill()

	ac := dialClient(t, a2.addr)
	epochA, err := ac.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote the rejoined A: %v", err)
	}
	if epochA <= epochB {
		t.Fatalf("A promoted at epoch %d, want > B's %d", epochA, epochB)
	}
	if _, err := ac.Exec(`Insert item (item-no := 3, name := "on A again").`); err != nil {
		t.Fatalf("write on re-promoted A: %v", err)
	}
	if got, err := a2.db.Query(itemsQ); err != nil || got.NumRows() != 3 {
		t.Fatalf("A's rows = %v (err %v), want 3", got, err)
	}
}

// TestNodeReadiness pins what /readyz answers in each role: a follower is
// not ready before its snapshot, whatever lag it tolerates; a promoted
// node is ready at once; a fenced node that rejoined a new primary is
// gated on its new follower again.
func TestNodeReadiness(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.db, `Insert item (item-no := 1, name := "one").`)

	r := startNode(t, t.TempDir(), "replica.db", "", repl.NodeConfig{ReplicaOf: deadAddr(t)})
	waitReconnects(t, r, 2)
	if r.node.Ready(1 << 40) {
		t.Fatal("a follower that never reached its primary reports ready")
	}
	if err := r.node.Retarget(0, p.addr); err != nil {
		t.Fatal(err)
	}
	waitNodeReady(t, r.node)
	waitConverged(t, p.db, r.db, itemsQ)
	p.kill()

	epoch, err := r.node.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !r.node.Ready(0) {
		t.Fatal("a promoted node is not ready at once")
	}

	// A newer primary fences r, naming an address nothing listens on: r
	// rejoins it, and is not ready until that follower has caught up.
	if err := repl.Fence(r.addr, epoch+1, deadAddr(t), 5*time.Second); err != nil {
		t.Fatalf("fence: %v", err)
	}
	wantFenced(t, r.addr)
	waitReconnects(t, r, 2)
	if r.node.Ready(1 << 40) {
		t.Fatal("a fenced node whose new follower has no snapshot reports ready")
	}
	p2dir := t.TempDir()
	seedEpoch(t, p2dir, epoch+1)
	p2 := startPrimaryNode(t, p2dir, "")
	if err := p2.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	if err := r.node.Retarget(epoch+1, p2.addr); err != nil {
		t.Fatalf("re-point the rejoined follower: %v", err)
	}
	waitNodeReady(t, r.node)
	waitConverged(t, p2.db, r.db, itemsQ)
}

// waitReconnects waits until n's follower has failed to reach its primary
// at least k more times.
func waitReconnects(t *testing.T, n *testNode, k float64) {
	t.Helper()
	reg := n.db.Metrics()
	base := reg.Get("sim_repl_reconnects_total")
	deadline := time.Now().Add(10 * time.Second)
	for reg.Get("sim_repl_reconnects_total") < base+k {
		if time.Now().After(deadline) {
			t.Fatal("the follower stopped redialing its primary")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHostlessAdvertiseDemotesOnly promotes a replica whose -advertise
// address has no host. Its fencer must deliver a demote-only notice: the
// old primary is fenced and follows nobody. Had the notice carried the
// host-less address, the old primary would resolve it as localhost and
// follow itself — here the address names the old primary's own port, so
// such a follower would never become ready.
func TestHostlessAdvertiseDemotesOnly(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	_, port, err := net.SplitHostPort(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	r := startNode(t, t.TempDir(), "replica.db", "", repl.NodeConfig{ReplicaOf: p.addr, Advertise: ":" + port})
	waitNodeReady(t, r.node)

	epoch, err := r.node.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.node.Status().Role != "fenced" {
		if time.Now().After(deadline) {
			t.Fatal("the fencer never demoted the live old primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantFenced(t, p.addr)
	if st := p.node.Status(); st.Epoch != epoch {
		t.Fatalf("old primary reports epoch %d, want the fencing epoch %d", st.Epoch, epoch)
	}
	if !p.node.Ready(0) {
		t.Fatal("the demoted old primary started following an address it was never given")
	}
}

// TestFenceDuringOpenWriteTx fences a primary while a client transaction
// that has written holds the store's write latch, which the fence's
// commit of the witnessed epoch needs. The node must keep answering
// meanwhile: it reports itself fenced, refuses the transaction's next
// write, and lets the client end the transaction by a rollback or by a
// commit it refuses. Only then does the fence return, with the witnessed
// epoch committed and the transaction's write gone.
func TestFenceDuringOpenWriteTx(t *testing.T) {
	ctx := context.Background()
	for _, end := range []string{"rollback", "commit"} {
		t.Run(end, func(t *testing.T) {
			p := startPrimaryNode(t, t.TempDir(), "")
			if err := p.db.DefineSchema(testSchema); err != nil {
				t.Fatal(err)
			}
			tx, err := dialClient(t, p.addr).Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(ctx, `Insert item (item-no := 1, name := "open").`); err != nil {
				t.Fatal(err)
			}

			epoch := p.node.Status().Epoch + 1
			fenced := make(chan error, 1)
			go func() { fenced <- p.node.Retarget(epoch, "") }()
			answered := make(chan struct{})
			go func() {
				for p.node.Status().Role != "fenced" {
					time.Sleep(time.Millisecond)
				}
				close(answered)
			}()
			select {
			case <-answered:
			case <-time.After(10 * time.Second):
				t.Fatal("the node stopped answering Status while its fence waited for the write latch")
			}
			select {
			case err := <-fenced:
				t.Fatalf("the fence returned (err %v) while a transaction held the write latch", err)
			default:
			}

			var we *wire.Error
			if _, err := tx.Exec(ctx, `Insert item (item-no := 2, name := "late").`); !errors.As(err, &we) || we.Code != wire.CodeFenced {
				t.Fatalf("write in the open transaction after the fence: err = %v, want CodeFenced", err)
			}
			if end == "rollback" {
				if err := tx.Rollback(ctx); err != nil {
					t.Fatalf("rollback on the fenced node: %v", err)
				}
			} else if err := tx.Commit(ctx); !errors.As(err, &we) || we.Code != wire.CodeFenced {
				t.Fatalf("commit on the fenced node: err = %v, want CodeFenced", err)
			}
			select {
			case err := <-fenced:
				if err != nil {
					t.Fatalf("fence: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the fence never committed after the transaction ended")
			}
			if st, err := p.db.NodeState(); err != nil || st.MaxSeen != epoch {
				t.Fatalf("record %+v (err %v), want the witnessed epoch %d", st, err, epoch)
			}
			if got, err := p.db.Query(itemsQ); err != nil || got.NumRows() != 0 {
				t.Fatalf("rows after the fence = %v (err %v), want none", got, err)
			}
		})
	}
}

// TestRefenceKeepsFollowing fences a node that already rejoined a new
// primary again, by a higher epoch that names no address. It must keep
// following the primary it follows, not fall silent while reporting
// itself ready.
func TestRefenceKeepsFollowing(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	qdir := t.TempDir()
	seedEpoch(t, qdir, 5)
	q := startPrimaryNode(t, qdir, "")
	if err := q.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, q.db, `Insert item (item-no := 1, name := "one").`)
	if err := p.node.Retarget(5, q.addr); err != nil {
		t.Fatalf("fence and rejoin: %v", err)
	}
	waitConverged(t, q.db, p.db, itemsQ)

	if err := p.node.Retarget(6, ""); err != nil {
		t.Fatalf("fence again without an address: %v", err)
	}
	if st := p.node.Status(); st.Role != "fenced" || st.Epoch != 6 {
		t.Fatalf("status after the second fence = %+v, want fenced at epoch 6", st)
	}
	mustExec(t, q.db, `Insert item (item-no := 2, name := "two").`)
	waitConverged(t, q.db, p.db, itemsQ)
	if st, err := p.db.NodeState(); err != nil || st.MaxSeen != 6 {
		t.Fatalf("record %+v (err %v), want the witnessed epoch 6", st, err)
	}
}
