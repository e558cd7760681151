package repl_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sim/internal/repl"
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
	if err := repl.AdvanceEpoch(filepath.Join(p2dir, "primary.db.epoch"), epoch+1); err != nil {
		t.Fatal(err)
	}
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
