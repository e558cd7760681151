package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sim"
	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/repl"
	"sim/internal/wire"
)

// A follower applies each replicated group as a commit of its own, under
// a new published stamp. These tests pin what that buys: read-only
// transactions on a replica are repeatable, a scan never mixes two
// groups, an apply in flight never holds up a reader, version chains on
// a replica are collected like a primary's, and a promoted follower's
// first write starts from the replicated state.

// openMemDB opens a durable database over fault-wrapped in-memory storage.
func openMemDB(t *testing.T, inj *fault.Injector) *sim.Database {
	t.Helper()
	db, err := openFaultReplica(inj, pager.NewMemByteFile(), pager.NewMemByteFile())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// memStream is a replication stream without the sockets: a primary over
// in-memory storage and a follower database that applies its groups
// in-process through the Applier the networked follower uses.
type memStream struct {
	pdb, rdb *sim.Database
	pub      *repl.Publisher
	sub      *repl.Subscription
	a        *repl.Applier
}

// newMemStream starts the follower (its storage scripted by rinj) from a
// snapshot of the empty primary.
func newMemStream(t *testing.T, rinj *fault.Injector) *memStream {
	t.Helper()
	ms := &memStream{pdb: openMemDB(t, fault.NewInjector()), rdb: openMemDB(t, rinj)}
	var err error
	if ms.pub, err = repl.NewPublisher(ms.pdb, repl.Config{}); err != nil {
		t.Fatal(err)
	}
	img, pos, _, sub, err := ms.pub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ms.sub = sub
	t.Cleanup(func() { ms.pub.Unsubscribe(sub) })
	ms.a = repl.NewApplier(ms.rdb, filepath.Join(t.TempDir(), "replica.repl"))
	if err := ms.a.ApplySnapshot(ms.pub.Epoch(), ms.pub.Run(), pos, img); err != nil {
		t.Fatal(err)
	}
	return ms
}

// pending returns the groups published since the last call, without
// applying them.
func (ms *memStream) pending() ([]*repl.Group, error) {
	var out []*repl.Group
	for {
		groups, err := ms.sub.Next(nil, 10*time.Millisecond)
		if err != nil || len(groups) == 0 {
			return out, err
		}
		out = append(out, groups...)
	}
}

// apply installs groups on the follower in order.
func (ms *memStream) apply(groups []*repl.Group) error {
	for _, g := range groups {
		if err := ms.a.ApplyGroup(wire.ReplFrames{
			Epoch: ms.pub.Epoch(), Run: ms.pub.Run(), Pos: g.Pos, Latest: ms.pub.Latest(), Pages: g.Pages,
		}); err != nil {
			return err
		}
	}
	return nil
}

// catchUp applies everything published so far and returns the number of
// groups applied.
func (ms *memStream) catchUp() (int, error) {
	n := 0
	for ms.a.Pos() < ms.pub.Latest() {
		groups, err := ms.pending()
		if err != nil {
			return n, err
		}
		if err := ms.apply(groups); err != nil {
			return n, err
		}
		n += len(groups)
	}
	return n, nil
}

// TestFollowerReadOnlyRepeatable: a ReadOnly transaction on a follower
// keeps reading the state it pinned at Begin while the follower applies
// later groups — the same repeatable reads the primary gives. Statements
// outside it see the new state.
func TestFollowerReadOnlyRepeatable(t *testing.T) {
	pdb, _, addr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	r := openFollower(t, t.TempDir(), addr)
	waitReady(t, r.f)
	const q = `From item Retrieve item-no, name Order By item-no.`
	waitConverged(t, pdb, r.db, q)

	ctx := context.Background()
	ro, err := r.db.Begin(ctx, sim.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	first, err := ro.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRows() != 5 {
		t.Fatalf("read-only tx reads %d rows, want 5", first.NumRows())
	}

	for i := 6; i <= 200; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	mustExec(t, pdb, `Modify item (name := "renamed") Where item-no = 1.`)
	waitConverged(t, pdb, r.db, q)

	again, err := ro.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Format() != first.Format() {
		t.Fatalf("read-only tx on the follower is not repeatable: %d rows, then %d after the apply", first.NumRows(), again.NumRows())
	}
	fresh, err := r.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NumRows() != 200 || !strings.Contains(fresh.Format(), "renamed") {
		t.Fatalf("a new query after the apply reads %d rows (want 200 with the rename):\n%s", fresh.NumRows(), fresh.Format())
	}
}

// resnapshot re-seeds the follower from a fresh base image of the primary,
// as a follower does when the publisher's ring no longer holds its
// position, and continues the stream after it.
func (ms *memStream) resnapshot() error {
	img, pos, _, sub, err := ms.pub.Snapshot()
	if err != nil {
		return err
	}
	ms.pub.Unsubscribe(ms.sub)
	ms.sub = sub
	return ms.a.ApplySnapshot(ms.pub.Epoch(), ms.pub.Run(), pos, img)
}

// TestFollowerReadOnlyRepeatableAcrossResnapshot: a snapshot install is
// one more commit on the follower. A ReadOnly transaction begun before it
// keeps reading the state it pinned; statements after it read the image,
// and the stream continues on top of it.
func TestFollowerReadOnlyRepeatableAcrossResnapshot(t *testing.T) {
	ms := newMemStream(t, fault.NewInjector())
	if err := ms.pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		mustExec(t, ms.pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	if _, err := ms.catchUp(); err != nil {
		t.Fatal(err)
	}
	const q = `From item Retrieve item-no, name Order By item-no.`
	ctx := context.Background()
	ro, err := ms.rdb.Begin(ctx, sim.ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	first, err := ro.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRows() != 5 {
		t.Fatalf("read-only tx reads %d rows, want 5", first.NumRows())
	}

	for i := 6; i <= 200; i++ {
		mustExec(t, ms.pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	mustExec(t, ms.pdb, `Modify item (name := "renamed") Where item-no = 1.`)
	if err := ms.resnapshot(); err != nil {
		t.Fatal(err)
	}

	again, err := ro.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Format() != first.Format() {
		t.Fatalf("read-only tx on the follower is not repeatable across a snapshot install: %d rows, then %d", first.NumRows(), again.NumRows())
	}
	fresh, err := ms.rdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NumRows() != 200 || !strings.Contains(fresh.Format(), "renamed") {
		t.Fatalf("a new query after the install reads %d rows (want 200 with the rename)", fresh.NumRows())
	}

	mustExec(t, ms.pdb, `Insert item (item-no := 201, name := "after").`)
	if _, err := ms.catchUp(); err != nil {
		t.Fatal(err)
	}
	if r, err := ms.rdb.Query(q); err != nil || r.NumRows() != 201 {
		t.Fatalf("after the install the stream continues: %v rows (err %v), want 201", r, err)
	}
	if err := ms.rdb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerScansNeverTorn: follower full scans running while the
// follower applies balance transfers each read exactly one group
// boundary — the total balance always equals the invariant. Run under
// -race: applying a group must never write a buffer a reader may hold.
func TestFollowerScansNeverTorn(t *testing.T) {
	const accts, transfers, total = 100, 500, 100 * 100
	ms := newMemStream(t, fault.NewInjector())
	if err := ms.pdb.DefineSchema(`Class acct ( id: integer unique required; bal: integer; memo: string[120] );`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("m", 120)
	for id := 1; id <= accts; id++ {
		mustExec(t, ms.pdb, fmt.Sprintf(`Insert acct (id := %d, bal := 100, memo := "%s").`, id, pad))
	}
	if _, err := ms.catchUp(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	primaryDone := make(chan struct{})
	var applied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the primary: transfers between random accounts
		defer wg.Done()
		defer close(primaryDone)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < transfers; i++ {
			from, to := 1+rng.Intn(accts), 1+rng.Intn(accts)
			for to == from {
				to = 1 + rng.Intn(accts)
			}
			tx, err := ms.pdb.Begin(ctx)
			if err == nil {
				_, err = tx.Exec(ctx, fmt.Sprintf(`Modify acct (bal := bal - 7) Where id = %d.`, from))
			}
			if err == nil {
				_, err = tx.Exec(ctx, fmt.Sprintf(`Modify acct (bal := bal + 7) Where id = %d.`, to))
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				t.Errorf("transfer %d: %v", i, err)
				return
			}
		}
	}()
	applyDone := make(chan struct{})
	wg.Add(1)
	go func() { // the follower's apply loop
		defer wg.Done()
		defer close(applyDone)
		for {
			select {
			case <-primaryDone:
				n, err := ms.catchUp()
				applied.Add(int64(n))
				if err != nil {
					t.Error(err)
				}
				return
			default:
			}
			groups, err := ms.pending()
			if err == nil {
				err = ms.apply(groups)
			}
			if err != nil {
				t.Error(err)
				return
			}
			applied.Add(int64(len(groups)))
		}
	}()
	var scans atomic.Int64
	wg.Add(1)
	go func() { // a follower reader
		defer wg.Done()
		for {
			select {
			case <-applyDone:
				return
			default:
			}
			r, err := ms.rdb.Query(`From acct Retrieve id, bal.`)
			if err != nil {
				t.Errorf("follower scan: %v", err)
				return
			}
			sum := 0
			for _, row := range r.Rows() {
				var b int
				fmt.Sscan(row[1].String(), &b)
				sum += b
			}
			if r.NumRows() != accts || sum != total {
				t.Errorf("torn follower scan: %d rows, balance %d, want %d rows, balance %d", r.NumRows(), sum, accts, total)
				return
			}
			scans.Add(1)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := applied.Load(); n < transfers {
		t.Fatalf("%d groups applied during the scans, want at least %d", n, transfers)
	}
	if scans.Load() == 0 {
		t.Fatal("no follower scan completed")
	}
	t.Logf("%d groups applied across %d follower scans", applied.Load(), scans.Load())
}

// TestFollowerApplyDoesNotBlockReads: while a group's WAL fsync on the
// follower is held, a follower query returns at once — at the stamp
// before the group — and the group shows only once its apply finishes.
func TestFollowerApplyDoesNotBlockReads(t *testing.T) {
	inj := fault.NewInjector()
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	inj.Step = func(_ uint64, what string) {
		if what == "wal:sync" && armed.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}
	ms := newMemStream(t, inj)
	if err := ms.pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustExec(t, ms.pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	if _, err := ms.catchUp(); err != nil {
		t.Fatal(err)
	}
	const q = `From item Retrieve item-no, name Order By item-no.`
	before, err := ms.rdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func() float64 { return ms.rdb.Metrics().Snapshot()["sim_mvcc_published_stamp"] }
	stampBefore := stamp()

	mustExec(t, ms.pdb, `Insert item (item-no := 4, name := "item 4").`)
	groups, err := ms.pending()
	if err != nil || len(groups) == 0 {
		t.Fatalf("no group for the insert (err %v)", err)
	}
	armed.Store(true)
	applyErr := make(chan error, 1)
	go func() { applyErr <- ms.apply(groups) }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the apply never reached the follower's WAL fsync")
	}

	type answer struct {
		r   *sim.Result
		err error
	}
	got := make(chan answer, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		r, err := ms.rdb.QueryCtx(ctx, q)
		got <- answer{r, err}
	}()
	select {
	case a := <-got:
		if a.err != nil {
			close(release)
			t.Fatalf("follower query during the held fsync: %v", a.err)
		}
		if a.r.Format() != before.Format() {
			close(release)
			t.Fatalf("follower query during the held fsync saw the group:\n%s", a.r.Format())
		}
		if s := stamp(); s != stampBefore {
			close(release)
			t.Fatalf("published stamp moved %v → %v before the group was durable", stampBefore, s)
		}
	case <-time.After(time.Second):
		close(release)
		<-applyErr
		t.Fatal("follower query blocked behind the held apply")
	}
	close(release)
	if err := <-applyErr; err != nil {
		t.Fatal(err)
	}
	after, err := ms.rdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumRows() != 4 {
		t.Fatalf("after the apply the follower reads %d rows, want 4", after.NumRows())
	}
}

// TestPromotionStartsFromFreshLiveState: applied groups move what the
// follower's live mapper cached before them — here a class count — so
// each apply resets it under its write latch. The first writes after a
// promotion therefore count, allocate surrogates and reach structures
// from the replicated state, and the promoted database audits clean.
func TestPromotionStartsFromFreshLiveState(t *testing.T) {
	pdb, _, addr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema + `
Class tag ( tag-no: integer unique required );`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	dir := t.TempDir()
	r := openFollower(t, dir, addr)
	waitReady(t, r.f)
	const q = `From item Retrieve item-no, name Order By item-no.`
	waitConverged(t, pdb, r.db, q)
	item := r.db.Catalog().Class("item")
	if n, err := r.db.Mapper().Count(item); err != nil || n != 5 {
		t.Fatalf("follower count of item = %d (err %v), want 5", n, err)
	}

	for i := 6; i <= 200; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %d").`, i, i))
	}
	mustExec(t, pdb, `Insert tag (tag-no := 1).`) // the tag structures appear only now
	const qt = `From tag Retrieve tag-no Order By tag-no.`
	waitConverged(t, pdb, r.db, q)
	waitConverged(t, pdb, r.db, qt)

	if _, err := r.f.Promote(filepath.Join(dir, "replica.db.epoch")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r.db, `Insert item (item-no := 201, name := "after promotion").`)
	mustExec(t, r.db, `Insert tag (tag-no := 2).`)

	if n, err := r.db.Mapper().Count(item); err != nil || n != 201 {
		t.Fatalf("promoted count of item = %d (err %v), want 201", n, err)
	}
	res, err := r.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 201 || rows[0][1].String() != "item 1" || rows[len(rows)-1][1].String() != "after promotion" {
		t.Fatalf("promoted insert reused a surrogate: %d rows, first %v, last %v", len(rows), rows[0], rows[len(rows)-1])
	}
	if tags, err := r.db.Query(qt); err != nil || tags.NumRows() != 2 {
		t.Fatalf("promoted tags: %v (err %v), want 2 rows", tags, err)
	}
	if err := r.db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("promoted scrub: %+v", rep)
	}
}
