package repl_test

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sim"
	"sim/internal/dmsii"
	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/repl"
	"sim/internal/wal"
	"sim/internal/wire"
)

// openFaultReplica assembles a replica Database over fault-wrapped
// in-memory storage, mirroring the primary-side crash matrix: crashing it
// freezes the images, and reopening with a fresh injector models the
// post-reboot recovery path.
func openFaultReplica(inj *fault.Injector, dbImg, walImg *pager.MemByteFile) (*sim.Database, error) {
	file := pager.NewChecksumFile(fault.Wrap("db", dbImg, inj))
	log, err := wal.OpenBacking(fault.Wrap("wal", walImg, inj))
	if err != nil {
		return nil, err
	}
	store, err := dmsii.OpenFiles(file, log, dmsii.Options{})
	if err != nil {
		return nil, err
	}
	return sim.OpenStore(store, sim.Config{})
}

// captureStream builds a primary and records the replication inputs a
// follower would receive: a base snapshot taken partway through the
// workload, the position it is current as of, and every committed group
// after it, as wire frames. The image holds rows a fresh database lacks,
// so a follower that skips installing it cannot converge, and the tail
// extends the schema, so a follower applies a replicated DDL group too.
func captureStream(t *testing.T) (pdb *sim.Database, epoch, run uint64, img []byte, at uint64, frames []wire.ReplFrames, want string) {
	t.Helper()
	var err error
	pdb, err = sim.Open(filepath.Join(t.TempDir(), "primary.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	pub, err := repl.NewPublisher(pdb, repl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	epoch = pub.Epoch()
	run = pub.Run()

	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pdb, `Insert item (item-no := 100, name := "before the snapshot").`)
	// Snapshot, keeping the subscription that continues exactly after it.
	img, at, _, sub, err := pub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Unsubscribe(sub)
	if at == 0 {
		t.Fatal("the snapshot predates every commit")
	}

	if err := pdb.DefineSchema(`Class tag ( label: string[16] );`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %02d").`, i+1, i))
	}
	mustExec(t, pdb, `Insert tag (label := "after the ddl").`)
	mustExec(t, pdb, `Modify item (name := "renamed") Where item-no = 3.`)
	mustExec(t, pdb, `Delete item Where item-no = 5.`)

	stop := make(chan struct{})
	for {
		groups, err := sub.Next(stop, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if groups == nil {
			break // drained: heartbeat timeout with nothing new
		}
		for _, g := range groups {
			frames = append(frames, wire.ReplFrames{
				Epoch: epoch, Run: run, Pos: g.Pos, Latest: pub.Latest(), Pages: g.Pages,
			})
		}
	}
	if len(frames) == 0 {
		t.Fatal("no groups captured")
	}
	if want, err = streamState(pdb); err != nil {
		t.Fatal(err)
	}
	return pdb, epoch, run, img, at, frames, want
}

// streamState is what captureStream's workload leaves: the item names and
// the rows of the class its tail defined.
func streamState(db *sim.Database) (string, error) {
	var out string
	for _, q := range []string{`From item Retrieve name Order By name.`, `From tag Retrieve label.`} {
		r, err := db.Query(q)
		if err != nil {
			return "", err
		}
		out += r.Format()
	}
	return out, nil
}

// TestFollowerCrashMatrix crashes the follower's storage stack at EVERY
// mutating-operation boundary of the replicated apply path — including
// torn-write variants — then reboots the frozen images, resumes from the
// position the recovered database holds, redelivers the stream, and
// asserts the replica converges to the primary's committed state with
// clean storage. Every resume must succeed: a group or snapshot commits
// its position with its pages, so no crash leaves a position that does
// not describe the data.
func TestFollowerCrashMatrix(t *testing.T) {
	_, epoch, run, img, at, frames, want := captureStream(t)

	// Dry run: apply everything fault-free to learn the op schedule and
	// confirm the baseline converges.
	applyAll := func(inj *fault.Injector, dbImg, walImg *pager.MemByteFile) (err error) {
		db, err := openFaultReplica(inj, dbImg, walImg)
		if err != nil {
			return err
		}
		// Close flushes too: a crash firing there must surface, not vanish
		// into a dropped deferred error.
		defer func() {
			if cerr := db.Close(); err == nil {
				err = cerr
			}
		}()
		a := repl.NewApplier(db, "")
		if a.State() == (dmsii.Position{}) {
			if err := a.ApplySnapshot(epoch, run, at, img); err != nil {
				return err
			}
		}
		for _, f := range frames {
			if err := a.ApplyGroup(f); err != nil {
				return err
			}
		}
		return nil
	}
	check := func(t *testing.T, dbImg, walImg *pager.MemByteFile) {
		t.Helper()
		db, err := openFaultReplica(fault.NewInjector(), dbImg, walImg)
		if err != nil {
			t.Fatalf("final open: %v", err)
		}
		defer db.Close()
		got, err := streamState(db)
		if err != nil {
			t.Fatalf("final query: %v", err)
		}
		if got != want {
			t.Fatalf("replica diverged:\nwant:\n%s\ngot:\n%s", want, got)
		}
		if rep, err := db.Scrub(); err != nil {
			t.Fatalf("scrub: %v (%v)", err, rep)
		}
	}

	inj := fault.NewInjector()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	if err := applyAll(inj, dbImg, walImg); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	check(t, dbImg, walImg)
	total := inj.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few storage ops: %d", total)
	}

	for op := uint64(1); op <= total; op++ {
		for _, torn := range []int{0, 7} {
			name := fmt.Sprintf("crash@%d", op)
			if torn > 0 {
				name = fmt.Sprintf("crash@%d/torn%d", op, torn)
			}
			t.Run(name, func(t *testing.T) {
				dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
				inj := fault.NewInjector()
				if torn > 0 {
					inj.CrashAtTorn(op, torn)
				} else {
					inj.CrashAt(op)
				}
				if err := applyAll(inj, dbImg, walImg); err == nil {
					t.Fatal("crash never fired")
				}
				// Reboot over the frozen images and redeliver the stream. A
				// crash before the snapshot install committed leaves position
				// zero, so the resume installs the snapshot again, as a real
				// follower at position zero requests.
				if err := applyAll(fault.NewInjector(), dbImg, walImg); err != nil {
					t.Fatalf("resume: %v", err)
				}
				check(t, dbImg, walImg)
			})
		}
	}
}

// chokeProxy forwards TCP to target, killing the first connection after
// limit bytes have flowed from the target to the client; later
// connections pass through untouched. It models a network partition
// landing mid-snapshot or mid-stream.
type chokeProxy struct {
	lis    net.Listener
	target string
	limit  int64

	mu    sync.Mutex
	first bool
}

func newChokeProxy(t *testing.T, target string, limit int64) *chokeProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chokeProxy{lis: lis, target: target, limit: limit, first: true}
	t.Cleanup(func() { lis.Close() })
	go p.run()
	return p
}

func (p *chokeProxy) addr() string { return p.lis.Addr().String() }

func (p *chokeProxy) run() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		choke := p.first
		p.first = false
		p.mu.Unlock()
		go p.pipe(c, choke)
	}
}

func (p *chokeProxy) pipe(c net.Conn, choke bool) {
	defer c.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	go io.Copy(up, c) // client -> primary (acks, hello)
	if choke {
		io.CopyN(c, up, p.limit) // cut the stream mid-flight
		return
	}
	io.Copy(c, up)
}

// TestFollowerPartitionMidSnapshot cuts the very first replication
// connection in the middle of the base snapshot; the follower must
// reconnect, take a fresh snapshot, converge, and hold clean storage.
func TestFollowerPartitionMidSnapshot(t *testing.T) {
	testFollowerPartition(t, 8<<10) // a few KB: inside the snapshot
}

// TestFollowerPartitionMidStream cuts the connection after the snapshot,
// while committed groups are flowing.
func TestFollowerPartitionMidStream(t *testing.T) {
	testFollowerPartition(t, 512<<10) // past the snapshot, into the tail
}

func testFollowerPartition(t *testing.T, cutAfter int64) {
	pdb, _, paddr := openPrimary(t, 0)
	if err := pdb.DefineSchema(testSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i+1, i))
	}
	proxy := newChokeProxy(t, paddr, cutAfter)

	dir := t.TempDir()
	rdb, err := sim.Open(filepath.Join(dir, "replica.db"), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	f := startFollower(t, rdb, dir, proxy.addr())
	waitReady(t, f)
	const q = `From item Retrieve name Order By name.`
	waitConverged(t, pdb, rdb, q)

	// Keep writing through a reconnect window, then converge again.
	for i := 50; i < 60; i++ {
		mustExec(t, pdb, fmt.Sprintf(`Insert item (item-no := %d, name := "item %03d").`, i+1, i))
	}
	waitConverged(t, pdb, rdb, q)
	f.Close()

	// The replica's storage must be clean: no torn pages survive the
	// partition and reconnect.
	if rep, err := rdb.Scrub(); err != nil {
		t.Fatalf("scrub after partition: %v (%v)", err, rep)
	}
}
