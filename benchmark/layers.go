package main

// This file holds every call the benchmark makes into sim/internal/*.
// A refactor of the engine that keeps these calls compiling keeps the
// benchmark, and with it every per-layer metric name, alive. The list is
// repeated in README.md ("What the probes pin").
//
//	university  DDL
//	luc         Config, Bound, Rec, RecBatch, Mapper.{View, LookupUnique, ReadBatch, GetEVAInto, IndexScan}
//	dmsii       OpenFile, OpenFiles, Options, Store.{PinSnapshot, Structure, Begin, Checkpoint, Get, Release,
//	            Stats, ResetStats, LiveVersions, Conflicts, EntityConflicts, Close},
//	            Structure.{Put, Get, Seek}, Txn.{Commit, Rollback}, Snap.Release
//	pager       ByteFile, NewChecksumFile, Frame{ID, Data}, PageID, PageSize, OpenOSByteFile
//	wal         Open, OpenBacking, Log.{Commit, Close}
//	parser      ParseStmt
//	ast         Stmt, RetrieveStmt
//	query       Bind, Tree
//	plan        Optimize, Plan
//	exec        New, Program, Executor.{SetWorkers, View, Compile, RetrieveProgram}
//	wire        EncodeResult, DecodeResult, WriteFrame, ReadFrameBuf, TResult, DefaultMaxFrame, ReplFrames
//	server      New, Config{ReadOnly, Publisher, ReplStatus}, Server.{Serve, Shutdown, Stats}
//	repl        NewPublisher, Config, Group, Publisher.{Snapshot, Unsubscribe, Latest, Epoch, Run, Seal, Status},
//	            Subscription.Next, StartFollower, FollowerConfig{Primary}, Follower.{WaitReady, Status, Close},
//	            NewApplier, Applier.{ApplySnapshot, ApplyGroup}
//	value       NewInt, NewString, Surrogate
//	catalog     Catalog.Class, ResolveAttr
//
// and, through the public API of package sim: OpenStore, Database.{Mapper,
// Catalog, Stats, ResetStats, FlightRecorder} (flight events of component
// "store", kind "checkpoint") and Tx.CommitTraced (Total, Fsync).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sim"
	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/exec"
	"sim/internal/luc"
	"sim/internal/pager"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/repl"
	"sim/internal/server"
	"sim/internal/university"
	"sim/internal/value"
	"sim/internal/wal"
	"sim/internal/wire"
)

const schemaDDL = university.DDL

// mapping adds the two secondary indexes the workloads' predicates use;
// everything else is the engine's default physical mapping.
var mapping = luc.Config{Indexes: []string{"person.name", "course.title"}}

const pageSize = pager.PageSize

// ---------------------------------------------------------------- nodes

// node is one file-backed database, opened by the benchmark through
// dmsii.OpenFile -> sim.OpenStore so that the probes keep the store
// handle, with the optional server, publisher and follower around it.
type node struct {
	path  string
	db    *sim.Database
	store *dmsii.Store

	srv     *server.Server
	srvDone chan struct{}
	addr    string

	pub *repl.Publisher
	fol *repl.Follower
}

// openNode opens (creating if necessary) the database at path with the
// engine's default pool, plan cache and flush policy. workers 0 means
// the engine default (GOMAXPROCS).
func openNode(path string, workers int) (*node, error) {
	store, err := dmsii.OpenFile(path, dmsii.Options{})
	if err != nil {
		return nil, err
	}
	db, err := sim.OpenStore(store, sim.Config{Workers: workers, Mapping: mapping})
	if err != nil {
		return nil, err
	}
	return &node{path: path, db: db, store: store}, nil
}

// serve puts an in-process server on loopback in front of the node.
func (n *node) serve(readOnly bool) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cfg := server.Config{ReadOnly: readOnly, Publisher: n.pub}
	if n.pub != nil {
		cfg.ReplStatus = n.pub.Status
	}
	n.srv = server.New(n.db, cfg)
	n.srvDone = make(chan struct{})
	n.addr = lis.Addr().String()
	go func() {
		defer close(n.srvDone)
		n.srv.Serve(lis) // always returns an error; ErrServerClosed after Shutdown
	}()
	return nil
}

func (n *node) stopServer() {
	if n.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	n.srv.Shutdown(ctx)
	cancel()
	<-n.srvDone
	n.srv = nil
}

// publish attaches a replication publisher to the node's commit path.
func (n *node) publish() error {
	pub, err := repl.NewPublisher(n.db, repl.Config{})
	if err != nil {
		return err
	}
	n.pub = pub
	return nil
}

// follow opens an empty database at path and replicates primary into it,
// returning once the follower has caught up, with the time that took.
func follow(path, primary string) (*node, time.Duration, error) {
	n, err := openNode(path, 0)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	n.fol, err = repl.StartFollower(n.db, path+".repl", repl.FollowerConfig{Primary: primary})
	if err != nil {
		n.close()
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := n.fol.WaitReady(ctx); err != nil {
		n.close()
		return nil, 0, err
	}
	return n, time.Since(start), nil
}

// lagGroups is how many published groups the follower has not applied.
func (n *node) lagGroups(primary *node) uint64 {
	latest, applied := primary.pub.Latest(), n.appliedPos()
	if applied >= latest {
		return 0
	}
	return latest - applied
}

// appliedPos is the last position the follower has applied.
func (n *node) appliedPos() uint64 {
	st := n.fol.Status()
	if len(st.Replicas) == 0 {
		return 0
	}
	return st.Replicas[0].Pos
}

func (n *node) close() error {
	n.stopServer()
	if n.fol != nil {
		n.fol.Close()
	}
	return n.db.Close()
}

// fileBytes is the size of the database file (call after a checkpoint).
func (n *node) fileBytes() (int64, error) {
	fi, err := os.Stat(n.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// checkpointsSince counts the automatic and explicit checkpoints the
// store's flight recorder saw after sequence number seq.
func (n *node) checkpointsSince(seq uint64) (count int, last uint64) {
	last = seq
	for _, ev := range n.db.FlightRecorder().Events() {
		if ev.Seq <= seq {
			continue
		}
		if ev.Seq > last {
			last = ev.Seq
		}
		if ev.Comp == "store" && ev.Kind == "checkpoint" {
			count++
		}
	}
	return count, last
}

func (n *node) conflicts() uint64 { return n.store.Conflicts() + n.store.EntityConflicts() }

// ----------------------------------------------------- staged Retrieve

// stager replays db.Query's stages one exported call at a time, on the
// same catalog, mapper and store as the database, with its own executor.
type stager struct {
	n   *node
	exe *exec.Executor
	// settle, when set, returns once nothing is changing the node's pages
	// and caches any more. db.Query is safe beside a follower's apply
	// because it holds the database's statement lock; the stager, outside
	// the database, cannot take that lock and must wait instead.
	settle func() error
}

func newStager(n *node) *stager {
	exe := exec.New(n.db.Mapper())
	exe.SetWorkers(runtime.GOMAXPROCS(0))
	return &stager{n: n, exe: exe}
}

// stages are the durations of one staged Retrieve.
type stages struct {
	parse, bind, optimize, compile, run time.Duration
	res                                 *sim.Result
}

// planned is everything before execution; it is what the plan cache saves.
func (s stages) planned() time.Duration { return s.parse + s.bind + s.optimize + s.compile }

func (s *stager) retrieve(tr *tracer, parent, op int, dml string) (stages, error) {
	var st stages
	var err error
	if s.settle != nil {
		if err := s.settle(); err != nil {
			return st, err
		}
	}
	snap := s.n.store.PinSnapshot()
	defer snap.Release()
	m := s.n.db.Mapper().View(snap)

	var stmt ast.Stmt
	st.parse = tr.call("parser", "ParseStmt", parent, op, func() { stmt, err = parser.ParseStmt(dml) })
	if err != nil {
		return st, err
	}
	ret, ok := stmt.(*ast.RetrieveStmt)
	if !ok {
		return st, fmt.Errorf("not a Retrieve: %s", dml)
	}
	var tree *query.Tree
	st.bind = tr.call("query", "Bind", parent, op, func() { tree, err = query.Bind(s.n.db.Catalog(), ret) })
	if err != nil {
		return st, err
	}
	var p *plan.Plan
	st.optimize = tr.call("plan", "Optimize", parent, op, func() { p, err = plan.Optimize(tree, m) })
	if err != nil {
		return st, err
	}
	var prog *exec.Program
	st.compile = tr.call("exec", "Compile", parent, op, func() {
		// A construct the compiler declines runs on the tree walker, as in
		// sim.Database.compilePlan.
		if prog, err = s.exe.Compile(p); err != nil {
			prog, err = nil, nil
		}
	})
	view := s.exe.View(m)
	st.run = tr.call("exec", "RetrieveProgram", parent, op, func() {
		st.res, err = view.RetrieveProgram(context.Background(), p, prog, nil)
	})
	return st, err
}

// ------------------------------------------------------------ luc probe

type lucProbe struct {
	lookupUnique  []time.Duration // per call
	getEVA        []time.Duration // per call
	readBatchRec  float64         // ns per record
	indexScanKey  float64         // ns per key returned
	cacheHitRatio float64         // over the probe itself (the window's ratio is reported separately)
}

// probeLUC replays mapper calls on db.Mapper() with the student keys the
// operation stream touched.
func probeLUC(tr *tracer, n *node, students []int) (lucProbe, error) {
	var out lucProbe
	cat := n.db.Catalog()
	student := cat.Class("student")
	if student == nil {
		return out, errors.New("no class student")
	}
	ssn := catalog.ResolveAttr(student, "soc-sec-no")
	advisor := catalog.ResolveAttr(student, "advisor")
	name := catalog.ResolveAttr(student, "name")
	if ssn == nil || advisor == nil || name == nil {
		return out, errors.New("student attributes missing")
	}
	snap := n.store.PinSnapshot()
	defer snap.Release()
	m := n.db.Mapper().View(snap)

	var err error
	surrs := make([]value.Surrogate, 0, len(students))
	for _, s := range students {
		var surr value.Surrogate
		var ok bool
		d := tr.call("luc", "LookupUnique", -1, -1, func() {
			surr, ok, err = m.LookupUnique(ssn, value.NewInt(int64(ssnOfStudent(s))))
		})
		if err != nil {
			return out, err
		}
		if !ok {
			return out, fmt.Errorf("luc probe: student %d not found", s)
		}
		out.lookupUnique = append(out.lookupUnique, d)
		surrs = append(surrs, surr)
	}
	var dst []value.Surrogate
	for _, surr := range surrs {
		d := tr.call("luc", "GetEVAInto", -1, -1, func() { dst, err = m.GetEVAInto(dst[:0], surr, advisor) })
		if err != nil {
			return out, err
		}
		out.getEVA = append(out.getEVA, d)
	}
	recs := make([]luc.Rec, luc.RecBatch())
	var total time.Duration
	for i := 0; i < len(surrs); i += len(recs) {
		chunk := surrs[i:min(i+len(recs), len(surrs))]
		total += tr.call("luc", "ReadBatch", -1, -1, func() { err = m.ReadBatch(student, chunk, recs) })
		if err != nil {
			return out, err
		}
	}
	out.readBatchRec = float64(total) / float64(len(surrs))

	// One index range per hundred students touched, each a hundred names wide.
	keys := 0
	total = 0
	for i := 0; i < len(students); i += 100 {
		lo := students[i] / 100 * 100
		var got []value.Surrogate
		total += tr.call("luc", "IndexScan", -1, -1, func() {
			got, err = m.IndexScan(name,
				luc.Bound{Value: value.NewString(studentName(lo)), Inclusive: true, Set: true},
				luc.Bound{Value: value.NewString(studentName(lo + 100)), Set: true})
		})
		if err != nil {
			return out, err
		}
		keys += len(got)
	}
	if keys > 0 {
		out.indexScanKey = float64(total) / float64(keys)
	}
	return out, nil
}

// ------------------------------------- btree / pager / dmsii / wal probe

type storeProbe struct {
	btreePut, btreeGet  []time.Duration
	seekNextKey         float64 // ns per key
	pagesPerGet         float64 // pool touches per Get
	pagerHit, pagerMiss []time.Duration
	dmsiiCommit         []time.Duration
	walCommit           []time.Duration
	fsyncFloor          []time.Duration
}

// scratchPool is the pool the scratch store is reopened with for the pager
// probe: a quarter of the pages cycled through, so that every first Get
// of a page evicts another.
const scratchPool = 64

// probeStore runs the storage-layer probes on a store, a log and a bare
// file that the benchmark opens itself under dir. dirtyPages is the number
// of pages one commit journals (the workload's mean, or 1).
func probeStore(tr *tracer, dir string, dirtyPages int) (storeProbe, error) {
	var out storeProbe
	path := filepath.Join(dir, "scratch.db")
	if err := probeBTree(tr, path, dirtyPages, &out); err != nil {
		return out, err
	}
	if err := probePager(tr, path, &out); err != nil {
		return out, err
	}
	return out, probeWAL(tr, dir, dirtyPages, &out)
}

// probeBTree times Structure.Put, Get and Seek+Next, and Txn.Commit of
// dirtyPages pages, on a fresh store with the engine's default pool.
func probeBTree(tr *tracer, path string, dirtyPages int, out *storeProbe) error {
	store, err := dmsii.OpenFile(path, dmsii.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	st, err := store.Structure("probe")
	if err != nil {
		return err
	}
	const keys = 20000 // about 300 pages: more than 4x scratchPool
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := bytes.Repeat([]byte("v"), 32)
	const perTxn = 500
	for base := 0; base < keys; base += perTxn {
		tx, err := store.Begin()
		if err != nil {
			return err
		}
		for i := base; i < base+perTxn; i++ {
			// Scatter the keys so that puts land on different leaves.
			k := key(i * 7919 % keys)
			d := tr.call("btree", "Put", -1, -1, func() { err = st.Put(k, val) })
			if err != nil {
				tx.Rollback()
				return err
			}
			out.btreePut = append(out.btreePut, d)
		}
		// Bulk commits journal hundreds of pages; the sized commits below
		// are the metric.
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	// Commits of the workload's size: touch dirtyPages distinct leaves.
	for c := 0; c < 60; c++ {
		tx, err := store.Begin()
		if err != nil {
			return err
		}
		for p := 0; p < dirtyPages; p++ {
			if err := st.Put(key((c*131+p*(keys/dirtyPages))%keys), val); err != nil {
				tx.Rollback()
				return err
			}
		}
		d := tr.call("dmsii", "Txn.Commit", -1, -1, func() { err = tx.Commit() })
		if err != nil {
			return err
		}
		out.dmsiiCommit = append(out.dmsiiCommit, d)
	}

	store.ResetStats()
	const gets = 4000
	for i := 0; i < gets; i++ {
		k := key(i * 104729 % keys)
		var ok bool
		d := tr.call("btree", "Get", -1, -1, func() { _, ok, err = st.Get(k) })
		if err != nil || !ok {
			return fmt.Errorf("btree probe: get %s: found=%v err=%v", k, ok, err)
		}
		out.btreeGet = append(out.btreeGet, d)
	}
	ps := store.Stats()
	out.pagesPerGet = float64(ps.Hits+ps.Misses) / gets

	n := 0
	d := tr.call("btree", "Seek+Next", -1, -1, func() {
		cur, e := st.Seek(key(0))
		if e != nil {
			err = e
			return
		}
		for ; cur.Valid(); cur.Next() {
			n++
		}
		err = cur.Err()
	})
	if err != nil || n != keys {
		return fmt.Errorf("btree probe: scanned %d of %d keys: %v", n, keys, err)
	}
	out.seekNextKey = float64(d) / float64(n)
	return nil
}

// probePager reopens the scratch store with a pool a quarter the size of
// the page range it cycles through: the first Get of a page is then a miss
// that evicts another page, the second a hit. Round 0 only brings the pool
// into that cycle and is not timed.
func probePager(tr *tracer, path string, out *storeProbe) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	span := min(4*scratchPool, int(fi.Size()/(pageSize+4))-1)
	if span <= scratchPool {
		return fmt.Errorf("pager probe: scratch store has only %d pages", span)
	}
	store, err := dmsii.OpenFile(path, dmsii.Options{PoolPages: scratchPool})
	if err != nil {
		return err
	}
	defer store.Close()
	get := func(name string, id int) (time.Duration, error) {
		var f *pager.Frame
		d := tr.call("pager", name, -1, -1, func() { f, err = store.Get(pager.PageID(id)) })
		if err != nil {
			return 0, err
		}
		store.Release(f)
		return d, nil
	}
	for round := 0; round < 4; round++ {
		store.ResetStats()
		for id := 1; id <= span; id++ {
			miss, err := get("Get(miss)", id)
			if err != nil {
				return err
			}
			hit, err := get("Get(hit)", id)
			if err != nil {
				return err
			}
			if round > 0 {
				out.pagerMiss = append(out.pagerMiss, miss)
				out.pagerHit = append(out.pagerHit, hit)
			}
		}
		if ps := store.Stats(); int(ps.Misses) != span || int(ps.Hits) != span {
			return fmt.Errorf("pager probe: %d misses and %d hits over %d pages, want %d of each", ps.Misses, ps.Hits, span, span)
		}
	}
	return nil
}

// probeWAL times Log.Commit of dirtyPages page images on a scratch log, and
// the bare fsync of the same bytes on a plain file: the device floor to
// read a commit latency against.
func probeWAL(tr *tracer, dir string, dirtyPages int, out *storeProbe) error {
	log, err := wal.Open(filepath.Join(dir, "scratch.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	frames := make([]*pager.Frame, dirtyPages)
	for i := range frames {
		frames[i] = &pager.Frame{ID: pager.PageID(i + 1), Data: bytes.Repeat([]byte{byte(i)}, pageSize)}
	}
	raw, err := pager.OpenOSByteFile(filepath.Join(dir, "scratch.raw"))
	if err != nil {
		return err
	}
	defer raw.Close()
	buf := make([]byte, dirtyPages*(pageSize+16))
	var off int64
	for i := 0; i < 60; i++ {
		d := tr.call("wal", "Log.Commit", -1, -1, func() { err = log.Commit(frames) })
		if err != nil {
			return err
		}
		out.walCommit = append(out.walCommit, d)
		if _, err := raw.WriteAt(buf, off); err != nil {
			return err
		}
		off += int64(len(buf))
		d = tr.call("pager", "OSByteFile.Sync", -1, -1, func() { err = raw.Sync() })
		if err != nil {
			return err
		}
		out.fsyncFloor = append(out.fsyncFloor, d)
	}
	return nil
}

// ----------------------------------------------------------- wire probe

type wireCost struct {
	encode, decode, frame time.Duration
	bytes, rows           int
}

// wireCalls times the wire-layer calls one remote Query makes for res:
// EncodeResult, one frame written and read back through a buffer, and
// DecodeResult.
func wireCalls(tr *tracer, parent, op int, res *sim.Result, scratch *bytes.Buffer, frameBuf []byte) (wireCost, []byte, error) {
	var c wireCost
	var err error
	var payload []byte
	c.encode = tr.call("wire", "EncodeResult", parent, op, func() { payload = wire.EncodeResult(res) })
	c.bytes, c.rows = len(payload), res.NumRows()
	scratch.Reset()
	var got []byte
	c.frame = tr.call("wire", "WriteFrame+ReadFrameBuf", parent, op, func() {
		if err = wire.WriteFrame(scratch, wire.TResult, payload); err != nil {
			return
		}
		_, got, err = wire.ReadFrameBuf(scratch, wire.DefaultMaxFrame, frameBuf)
	})
	if err != nil {
		return c, frameBuf, err
	}
	var back *sim.Result
	c.decode = tr.call("wire", "DecodeResult", parent, op, func() { back, err = wire.DecodeResult(got) })
	if err != nil {
		return c, got[:0], err
	}
	if back.NumRows() != res.NumRows() {
		return c, got[:0], fmt.Errorf("wire probe: decoded %d rows of %d", back.NumRows(), res.NumRows())
	}
	return c, got[:0], nil
}

// ----------------------------------------------------------- repl probe

// applyProbe captures the commit groups that produce publishes while it
// runs, then times Applier.ApplyGroup of each on a fresh follower
// database under dir. produce must commit at least one transaction.
func applyProbe(tr *tracer, primary *node, dir string, produce func() error) ([]time.Duration, error) {
	img, pos, _, sub, err := primary.pub.Snapshot()
	if err != nil {
		return nil, err
	}
	defer primary.pub.Unsubscribe(sub)
	if err := produce(); err != nil {
		return nil, err
	}
	want := primary.pub.Latest()
	var groups []*repl.Group
	stop := make(chan struct{})
	for len(groups) == 0 || groups[len(groups)-1].Pos < want {
		batch, err := sub.Next(stop, time.Second)
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return nil, errors.New("apply probe: published groups did not arrive")
		}
		groups = append(groups, batch...)
	}
	fresh, err := openNode(filepath.Join(dir, "apply.db"), 0)
	if err != nil {
		return nil, err
	}
	defer fresh.close()
	ap := repl.NewApplier(fresh.db, fresh.path+".repl")
	epoch, run := primary.pub.Epoch(), primary.pub.Run()
	if err := ap.ApplySnapshot(epoch, run, pos, img); err != nil {
		return nil, err
	}
	var out []time.Duration
	for _, g := range groups {
		f := wire.ReplFrames{Epoch: epoch, Run: run, Pos: g.Pos, Latest: want, Gen: g.Gen, TS: g.TS, IDs: g.IDs, Pages: g.Pages}
		d := tr.call("repl", "Applier.ApplyGroup", -1, -1, func() { err = ap.ApplyGroup(f) })
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// ------------------------------------------------- durability drill storage

// bufFile is a pager.ByteFile whose writes stay in a volatile buffer until
// Sync, like a file behind an operating system's cache. crash discards
// what was never synced, which is what killing the machine — not just the
// process — would do.
type bufFile struct {
	mu       sync.Mutex
	durable  []byte
	volatile []byte // durable plus unsynced writes
}

func (f *bufFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.volatile)) {
		return 0, io.EOF
	}
	n := copy(p, f.volatile[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *bufFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := int(off) + len(p); end > len(f.volatile) {
		f.volatile = append(f.volatile, make([]byte, end-len(f.volatile))...)
	}
	copy(f.volatile[off:], p)
	return len(p), nil
}

func (f *bufFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(size) <= len(f.volatile) {
		f.volatile = f.volatile[:size]
	} else {
		f.volatile = append(f.volatile, make([]byte, int(size)-len(f.volatile))...)
	}
	return nil
}

func (f *bufFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.durable = append(f.durable[:0], f.volatile...)
	return nil
}

func (f *bufFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.volatile)), nil
}

func (f *bufFile) Close() error { return nil }

// crash returns a file holding only the synced bytes.
func (f *bufFile) crash() *bufFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := append([]byte(nil), f.durable...)
	return &bufFile{durable: d, volatile: append([]byte(nil), d...)}
}

// openOver assembles a database over explicit page-file and WAL storage,
// as dmsii.OpenFile does over the operating system's files.
func openOver(file, log pager.ByteFile) (*sim.Database, error) {
	l, err := wal.OpenBacking(log)
	if err != nil {
		return nil, err
	}
	store, err := dmsii.OpenFiles(pager.NewChecksumFile(file), l, dmsii.Options{})
	if err != nil {
		return nil, err
	}
	return sim.OpenStore(store, sim.Config{Mapping: mapping})
}
