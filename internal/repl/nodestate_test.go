package repl_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sim"
	"sim/internal/dmsii"
	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/repl"
)

// A node's epoch and followed position live in its database's record
// (dmsii.NodeState), committed with the pages they describe. These tests
// pin what that buys: one file set per node, one fsync per applied group,
// and terms that survive a crash at any storage operation.

// TestNodeKeepsOneFileSet walks a follower through applying N groups,
// promotion, a fence and a rejoin, and checks that each applied group cost
// exactly one fsync and that no file beyond the database and its WAL was
// ever written.
func TestNodeKeepsOneFileSet(t *testing.T) {
	p := startPrimaryNode(t, t.TempDir(), "")
	if err := p.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	r := startReplicaNode(t, p.addr)
	waitConverged(t, p.db, r.db, itemsQ)
	caughtUp := func() uint64 {
		t.Helper()
		latest := p.node.Status().Latest
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			st, err := r.db.NodeState()
			if err != nil {
				t.Fatal(err)
			}
			if st.Follow.Pos == latest {
				return st.Follow.Pos
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower's record at position %d, primary at %d", st.Follow.Pos, latest)
			}
		}
	}
	pos0, syncs0 := caughtUp(), r.db.Stats().WAL.Syncs
	const n = 8
	for i := 1; i <= n; i++ {
		mustExec(t, p.db, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	pos1, syncs1 := caughtUp(), r.db.Stats().WAL.Syncs
	if pos1-pos0 != n {
		t.Fatalf("%d inserts published %d groups", n, pos1-pos0)
	}
	if syncs1-syncs0 != n {
		t.Fatalf("applying %d groups took %d fsyncs, want %d", n, syncs1-syncs0, n)
	}

	p.kill()
	epoch, err := r.node.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	p2dir := t.TempDir()
	seedEpoch(t, p2dir, epoch+1)
	p2 := startPrimaryNode(t, p2dir, "")
	if err := p2.db.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p2.db, `Insert item (item-no := 100, name := "newer primary").`)
	if err := repl.Fence(r.addr, epoch+1, p2.addr, 5*time.Second); err != nil {
		t.Fatalf("fence: %v", err)
	}
	waitConverged(t, p2.db, r.db, itemsQ)
	if st, err := r.db.NodeState(); err != nil || st.Epoch != epoch || st.MaxSeen != epoch+1 {
		t.Fatalf("rejoined node's record = %+v (err %v), want epoch %d, max seen %d", st, err, epoch, epoch+1)
	}

	for _, node := range []*testNode{p, r} {
		ents, err := os.ReadDir(filepath.Dir(node.path))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		base := filepath.Base(node.path)
		if want := []string{base, base + ".wal"}; !slices.Equal(names, want) {
			t.Errorf("%s holds %v, want %v", filepath.Dir(node.path), names, want)
		}
	}
}

// TestPromotionCrashMatrix crashes a node's storage at every mutating
// operation — with and without a torn write — while it claims a term,
// follows a primary, is promoted and then witnesses a higher term, and
// reboots the frozen images each time. The rebooted record must hold the
// terms of the last step that returned or of the one in flight, never
// older ones, and the followed position once the follow step returned.
func TestPromotionCrashMatrix(t *testing.T) {
	_, epoch, run, img, at, frames, _ := captureStream(t)
	follow := dmsii.Position{Epoch: epoch, Run: run, Pos: frames[len(frames)-1].Pos}
	const fencing = 9
	// The record's terms before any step, then once each step returned.
	want := []dmsii.NodeState{
		{},
		{Epoch: 1, MaxSeen: 1},                 // claim
		{Epoch: 1, MaxSeen: 1, Follow: follow}, // follow
		{Epoch: 2, MaxSeen: 2, Follow: follow}, // promote
		{Epoch: 2, MaxSeen: fencing, Follow: follow}, // witness
	}
	path := filepath.Join(t.TempDir(), "node.db") // names the role; the storage is in memory
	dead := deadAddr(t)

	// drive runs the steps over inj's storage until one fails, and returns
	// how many returned.
	drive := func(t *testing.T, inj *fault.Injector, dbImg, walImg *pager.MemByteFile) (done int) {
		db, err := openFaultReplica(inj, dbImg, walImg)
		if err != nil {
			return 0
		}
		defer db.Close()
		ok := func(err error) bool {
			if err == nil && !inj.Crashed() {
				done++
				return true
			}
			return false
		}
		if _, _, err := repl.ClaimEpoch(db); !ok(err) {
			return done
		}
		a := repl.NewApplier(db, "")
		err = a.ApplySnapshot(epoch, run, at, img)
		for _, f := range frames {
			if err == nil {
				err = a.ApplyGroup(f)
			}
		}
		if !ok(err) {
			return done
		}
		node, err := repl.StartNode(db, repl.NodeConfig{Path: path, ReplicaOf: dead})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		if got, err := node.Promote(); !ok(err) {
			return done
		} else if got != 2 {
			t.Fatalf("promoted to epoch %d, want 2", got)
		}
		ok(node.Retarget(fencing, ""))
		return done
	}
	reboot := func(t *testing.T, dbImg, walImg *pager.MemByteFile) dmsii.NodeState {
		t.Helper()
		db, err := openFaultReplica(fault.NewInjector(), dbImg, walImg)
		if err != nil {
			t.Fatalf("reboot: %v", err)
		}
		defer db.Close()
		if rep, err := db.Scrub(); err != nil {
			t.Fatalf("scrub: %v (%v)", err, rep)
		}
		st, err := db.NodeState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	inj := fault.NewInjector()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	if done := drive(t, inj, dbImg, walImg); done != len(want)-1 {
		t.Fatalf("dry run stopped after %d steps", done)
	}
	if st := reboot(t, dbImg, walImg); st != want[len(want)-1] {
		t.Fatalf("dry run left %+v, want %+v", st, want[len(want)-1])
	}
	total := inj.Ops()

	for op := uint64(1); op <= total; op++ {
		for _, torn := range []int{0, 7} {
			t.Run(fmt.Sprintf("crash@%d/torn%d", op, torn), func(t *testing.T) {
				dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
				inj := fault.NewInjector()
				if torn > 0 {
					inj.CrashAtTorn(op, torn)
				} else {
					inj.CrashAt(op)
				}
				done := drive(t, inj, dbImg, walImg)
				if !inj.Crashed() {
					t.Fatal("crash never fired")
				}
				st := reboot(t, dbImg, walImg)
				old, next := want[done], want[min(done+1, len(want)-1)]
				terms := func(s dmsii.NodeState) [2]uint64 { return [2]uint64{s.Epoch, s.MaxSeen} }
				if got := terms(st); got != terms(old) && got != terms(next) {
					t.Fatalf("after %d steps the record's terms are %v, want %v or %v", done, got, terms(old), terms(next))
				}
				if done >= 2 && st.Follow != follow {
					t.Fatalf("followed position %+v after the follow step returned, want %+v", st.Follow, follow)
				}
			})
		}
	}
}

// TestStartNodeRefusesSidecars: a database with an older build's
// ".epoch" or ".repl" file beside it is refused, naming the file, rather
// than restarted at epoch 1 — which would make a fenced node writable.
func TestStartNodeRefusesSidecars(t *testing.T) {
	for _, suffix := range []string{".epoch", ".repl"} {
		path := filepath.Join(t.TempDir(), "node.db")
		db, err := sim.Open(path, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := os.WriteFile(path+suffix, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := repl.StartNode(db, repl.NodeConfig{Path: path}); err == nil || !strings.Contains(err.Error(), path+suffix) {
			t.Fatalf("StartNode beside %s: %v, want a refusal naming the file", suffix, err)
		}
	}
}

// TestStartNodeRefusesMemoryReplica: an in-memory database journals, but
// it loses its pages and its position at Close, so it cannot follow a
// primary. StartNode refuses it before it dials anything.
func TestStartNodeRefusesMemoryReplica(t *testing.T) {
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = repl.StartNode(db, repl.NodeConfig{ReplicaOf: "127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "needs a database file") {
		t.Fatalf("StartNode of an in-memory replica: %v, want the database-file refusal", err)
	}
}

// TestWitnessFailureIsRetried: a fenced primary whose witness commit
// fails answers the fencing notice with the error, so the fencer retries;
// the retried notice at the same epoch commits the witnessed epoch,
// although the first notice already fenced the node.
func TestWitnessFailureIsRetried(t *testing.T) {
	_, epoch, run, img, at, frames, _ := captureStream(t)
	inj := fault.NewInjector()
	db, err := openFaultReplica(inj, pager.NewMemByteFile(), pager.NewMemByteFile())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := repl.ClaimEpoch(db); err != nil {
		t.Fatal(err)
	}
	a := repl.NewApplier(db, "")
	err = a.ApplySnapshot(epoch, run, at, img)
	for _, f := range frames {
		if err == nil {
			err = a.ApplyGroup(f)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.StartNode(db, repl.NodeConfig{Path: filepath.Join(t.TempDir(), "node.db"), ReplicaOf: deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	const fencing = 9
	maxSeen := func() uint64 {
		t.Helper()
		st, err := db.NodeState()
		if err != nil {
			t.Fatal(err)
		}
		return st.MaxSeen
	}

	inj.FailSync(inj.Ops()+2, nil) // the witness commit's WAL write, then its sync
	if err := node.Retarget(fencing, ""); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("retarget over a failed witness: %v, want the injected failure", err)
	}
	if got := maxSeen(); got >= fencing {
		t.Fatalf("max seen %d after a failed witness", got)
	}
	if st := node.Status(); st.Role != "fenced" {
		t.Fatalf("role %q after the first notice, want fenced", st.Role)
	}
	// The failed sync poisoned the log; a checkpoint starts a new cycle.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := node.Retarget(fencing, ""); err != nil {
		t.Fatalf("retried retarget: %v", err)
	}
	if got := maxSeen(); got != fencing {
		t.Fatalf("max seen %d after the retried notice, want %d", got, fencing)
	}
}
