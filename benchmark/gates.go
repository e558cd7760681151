package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sim"
	"sim/client"
)

// reference holds the expected text of every reference query, answered by
// a database built with Workers: 1 from the same seed.
type reference map[string]string

// referenceQueries are every analytic template at its first parameter and
// one point read of each class.
func referenceQueries(d dataset) []string {
	var q []string
	for _, t := range templates {
		q = append(q, t.text(d, 0))
	}
	g := newPointReads(d, 1)
	seen := map[string]bool{}
	for len(seen) < 3 {
		o := g.next()
		if !seen[o.class] {
			seen[o.class] = true
			q = append(q, o.stmts[0])
		}
	}
	return q
}

func answerReference(db *sim.Database, d dataset) (reference, error) {
	ref := reference{}
	for _, q := range referenceQueries(d) {
		res, err := db.Query(q)
		if err != nil {
			return nil, fmt.Errorf("reference query %q: %w", q, err)
		}
		ref[q] = res.Format()
	}
	return ref, nil
}

// compareReference checks one way of asking against the reference.
func compareReference(ref reference, how string, ask func(string) (*sim.Result, error)) error {
	for q, want := range ref {
		res, err := ask(q)
		if err != nil {
			return fmt.Errorf("%s: %q: %w", how, q, err)
		}
		if got := res.Format(); got != want {
			return fmt.Errorf("%s: %q: result differs from the Workers:1 database (%d vs %d bytes)", how, q, len(got), len(want))
		}
	}
	return nil
}

// checkReference demands byte-identical first results from embedded
// db.Query, from client.Conn.Query, and — both already compared against
// it — from the Workers: 1 build. It runs right after set-up, before any
// client writes. A workload without a server gets one for the check only.
func checkReference(e *env, ref reference) error {
	if err := compareReference(ref, "embedded", e.primary.db.Query); err != nil {
		return err
	}
	nodes := []*node{e.primary}
	if e.replica != nil {
		nodes = append(nodes, e.replica)
	}
	for _, n := range nodes {
		if n.srv == nil {
			if err := n.serve(false); err != nil {
				return err
			}
			defer n.stopServer()
		}
		c, err := client.Dial(n.addr)
		if err != nil {
			return err
		}
		err = compareReference(ref, "client.Conn "+n.addr, c.Query)
		c.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// runGates runs the workload's closing correctness gates.
func (r *result) runGates(cfg runConfig, e *env, w windowSummary) {
	if w.failed > 0 {
		r.gate("no failed operations", fmt.Errorf("%d of %d operations failed: %v", w.failed, w.attempted, w.errs))
	}
	if e.writes() {
		r.gate("CheckIntegrity", e.primary.db.CheckIntegrity())
		r.gate("Scrub", scrub(e.primary.db))
	}
	if r.Workload == txnDur {
		r.gate("durability drill", durabilityDrill(cfg.seed, cfg.drillTxns))
	}
	if e.replica != nil {
		r.gate("replica converged", converged(e))
		r.gate("replica Scrub", scrub(e.replica.db))
	}
}

func scrub(db *sim.Database) error {
	rep, err := db.Scrub()
	if err != nil {
		return err
	}
	if !rep.OK() {
		return errors.New(rep.String())
	}
	return nil
}

// caughtUp waits for the follower to reach the primary's position.
func caughtUp(e *env) error {
	want := e.primary.pub.Latest()
	deadline := time.Now().Add(10 * time.Second)
	for e.replica.appliedPos() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at %d, primary at %d after 10s", e.replica.appliedPos(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := e.replica.appliedPos(); got != e.primary.pub.Latest() {
		return fmt.Errorf("follower at %d, primary at %d", got, e.primary.pub.Latest())
	}
	return nil
}

// converged demands the follower at the primary's position and the same
// full scan from both nodes.
func converged(e *env) error {
	if err := caughtUp(e); err != nil {
		return err
	}
	for _, q := range []string{templates[0].text(e.d, 0), `From department Retrieve dept-nbr, name.`} {
		a, err := e.primary.db.Query(q)
		if err != nil {
			return err
		}
		b, err := e.replica.db.Query(q)
		if err != nil {
			return err
		}
		if a.Format() != b.Format() {
			return fmt.Errorf("%q differs between primary and replica", q)
		}
	}
	return nil
}

// durabilityDrill runs transactions over storage that holds writes in a
// volatile buffer until Sync, kills the machine at a seed-chosen point by
// discarding the unsynced bytes of both the database file and the WAL,
// reopens, and demands every acknowledged transaction — and nothing of
// the one in flight — be readable. Killing only the process would leave
// the operating system's cache intact and prove nothing about fsync.
func durabilityDrill(seed int64, txns int) error {
	file, log := &bufFile{}, &bufFile{}
	db, err := openOver(file, log)
	if err != nil {
		return err
	}
	if err := db.DefineSchema(schemaDDL); err != nil {
		return err
	}
	d := univM.scaled(100)
	if _, err := d.load(db, seed); err != nil {
		return err
	}
	w := newWriter(d, 0, seed)
	w.mix = [4]int{40, 65, 90, 100} // no reads: every operation commits something
	kill := txns/4 + rand.New(rand.NewSource(seed)).Intn(txns*3/4)
	s := embedded{db}
	t := newTally()
	for i := 0; i < kill; i++ {
		execute(s, w.next(), t, false)
	}
	if t.failed > 0 {
		return fmt.Errorf("drill: %d operations failed before the kill: %v", t.failed, t.errs)
	}
	acked := append([]int(nil), w.added...)
	advisor := append([]int(nil), w.advisor...)
	// One more transaction is in flight, written but not committed.
	inflight := w.register()
	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		return err
	}
	if _, err := tx.Exec(ctx, inflight.stmts[0]); err != nil {
		return err
	}
	// The kill: the old database is abandoned, never closed.
	db, err = openOver(file.crash(), log.crash())
	if err != nil {
		return fmt.Errorf("drill: reopen after kill at %d: %w", kill, err)
	}
	defer db.Close()
	count := func(q string) (int, error) {
		res, err := db.Query(q)
		if err != nil {
			return 0, err
		}
		return res.NumRows(), nil
	}
	for _, st := range acked {
		n, err := count(fmt.Sprintf(`From student Retrieve name Where soc-sec-no = %d.`, ssnOfStudent(st)))
		if err != nil || n != 1 {
			return fmt.Errorf("drill: acknowledged student %d lost after kill at %d (rows=%d err=%v)", st, kill, n, err)
		}
	}
	total, err := count(`From student Retrieve soc-sec-no.`)
	if err != nil {
		return err
	}
	if want := d.Students + len(acked); total != want {
		return fmt.Errorf("drill: %d students after kill at %d, want %d (unacknowledged or withdrawn students visible)", total, kill, want)
	}
	for k, a := range advisor {
		if a < 0 {
			continue
		}
		q := fmt.Sprintf(`From student Retrieve name Where soc-sec-no = %d and employee-nbr of advisor = %d.`,
			ssnOfStudent(inPartition(k, 0)), empNo(inPartition(a, 0)))
		if n, err := count(q); err != nil || n != 1 {
			return fmt.Errorf("drill: acknowledged transfer of student %d lost after kill at %d (rows=%d err=%v)", inPartition(k, 0), kill, n, err)
		}
	}
	return db.CheckIntegrity()
}
