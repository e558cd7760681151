package repl_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sim"
	"sim/client"
	"sim/internal/repl"
)

// TestRequestTraceEndToEnd is the tracing acceptance path: one client-
// minted request ID must be returned in the commit's span breakdown and
// then be findable in the flight recorders of BOTH processes — the
// primary (txn/wal events) and the follower that applied the replicated
// commit group.
func TestRequestTraceEndToEnd(t *testing.T) {
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 1, name := "seed").`)

	dir := t.TempDir()
	r := openFollower(t, dir, paddr)
	defer r.f.Close()
	// The follower's flight ring attaches at metrics registration; the
	// replica database owns the registry (simserve does the same).
	r.f.RegisterMetrics(r.db.Metrics())
	waitReady(t, r.f)
	const q = `From item Retrieve name Order By name.`
	waitConverged(t, pdb, r.db, q)

	c, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `Insert item (item-no := 2, name := "traced").`); err != nil {
		t.Fatal(err)
	}
	ci, err := tx.TraceCommit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ci.ID == 0 {
		t.Fatal("TraceCommit returned a zero request ID")
	}
	if ci.Pages == 0 {
		t.Fatalf("traced commit journaled no pages: %+v", ci)
	}
	if ci.Pos == 0 {
		t.Fatalf("traced commit has no replication position: %+v", ci)
	}
	if ci.TotalNS == 0 || ci.FsyncNS == 0 {
		t.Fatalf("commit spans not filled: %+v", ci)
	}
	if !strings.Contains(ci.Rendered, fmt.Sprintf("%016x", ci.ID)) {
		t.Fatalf("rendered trace does not name the request:\n%s", ci.Rendered)
	}

	// The same ID names the commit in the primary's flight recorder (txn
	// commit and WAL flush events).
	idTag := fmt.Sprintf("id=%016x", ci.ID)
	pdump := pdb.FlightRecorder().Dump()
	if !strings.Contains(pdump, idTag) {
		t.Fatalf("primary flight recorder has no %s:\n%s", idTag, pdump)
	}

	// ...and, once the group is applied, in the follower's.
	waitConverged(t, pdb, r.db, q)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rdump := r.db.FlightRecorder().Dump()
		if strings.Contains(rdump, idTag) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower flight recorder never saw %s:\n%s", idTag, rdump)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The follower observed staleness samples from the publish clock.
	if got := r.db.Metrics().Get("sim_repl_staleness_seconds"); got == 0 {
		t.Error("sim_repl_staleness_seconds observed no samples")
	}
}

// TestFollowerReadyGate pins the /readyz semantics: a follower is ready
// only once its snapshot is installed and its lag is under the threshold.
func TestFollowerReadyGate(t *testing.T) {
	// A follower of an unreachable primary never becomes ready.
	db, err := sim.Open(filepath.Join(t.TempDir(), "stray.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stray, err := repl.StartFollower(db, "", repl.FollowerConfig{
		Primary:      "127.0.0.1:1", // nothing listens here
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if stray.Ready(1 << 30) {
		t.Fatal("follower with an unreachable primary reports ready")
	}

	// A caught-up follower is ready even at lag threshold 0.
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 1, name := "one").`)
	r := openFollower(t, t.TempDir(), paddr)
	defer r.f.Close()
	waitReady(t, r.f)
	waitConverged(t, pdb, r.db, `From item Retrieve name.`)
	deadline := time.Now().Add(10 * time.Second)
	for !r.f.Ready(0) {
		if time.Now().After(deadline) {
			t.Fatal("converged follower never reported Ready(0)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r.f.Ready(64) {
		t.Fatal("converged follower not ready under a 64-group threshold")
	}
}

// TestMultiExplainAnalyzeOnReplica is the regression test for \analyze
// over a replica connection: the QueryTrace frame must work through the
// Multi client's replica read path, not just on the primary.
func TestMultiExplainAnalyzeOnReplica(t *testing.T) {
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 1, name := "one").`)
	r := openFollower(t, t.TempDir(), paddr)
	defer r.f.Close()
	waitReady(t, r.f)
	const q = `From item Retrieve name.`
	waitConverged(t, pdb, r.db, q)

	m, err := client.DialMulti([]string{paddr, r.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	out, err := m.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("ExplainAnalyze through replica read path: %v", err)
	}
	if !strings.Contains(out, "rows=") {
		t.Fatalf("ExplainAnalyze output not annotated:\n%s", out)
	}
	res, ti, err := m.QueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || ti.TotalNS == 0 {
		t.Fatalf("QueryTrace through replica: rows=%d trace=%+v", res.NumRows(), ti)
	}
	if ti.ID == 0 {
		t.Fatal("replica-side trace lost the client request ID")
	}
}
