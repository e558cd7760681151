package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sim"
	"sim/client"
)

// The traced run follows the untraced window in the same process: one
// client, the clients' own operation streams continued, every call into a
// layer's exported functions wrapped in a span. Each part is capped by
// count and by time, because one analytic operation is measured several
// ways and takes a hundred thousand times a point read.
type traceBudget struct {
	ops        int           // traced operations, over all streams
	time       time.Duration // and the time they may take
	templates  int           // staged runs of each analytic template
	allocOps   int           // operations of the allocation pass
	allocTime  time.Duration
	txns       int           // canonical transfer transactions per commit probe
	replWindow time.Duration // replicated window on a workload that is not replicated
}

var (
	fullBudget  = traceBudget{2000, 4 * time.Second, 3, 200, time.Second, 100, time.Second}
	smokeBudget = traceBudget{1000, 300 * time.Millisecond, 1, 40, time.Second, 10, 200 * time.Millisecond}
)

// traceData is what the traced replay collected.
type traceData struct {
	parse, bind, optimize, compile, run []int64
	wall                                []int64            // db.Query, every embedded read
	local                               map[string][]int64 // the same, by class
	remoteWall                          map[string][]int64 // conn.Query by class
	wire                                map[string][]int64 // wire calls of the same operations, by class
	encode, decode, frame               []int64
	wireBytes, wireRows                 int64
	sumWall                             int64
	staged                              []int64 // per embedded read, beside wall: the staged calls db.Query made
	txBegin, txExec, txCommit           []int64
	txCommitCPU                         []int64 // Commit minus its group's WAL write and fsync
	readSpans                           int     // spans recorded by the embedded reads
}

func newTraceData() *traceData {
	return &traceData{local: map[string][]int64{},
		remoteWall: map[string][]int64{}, wire: map[string][]int64{}}
}

// tracedRun produces the per-layer timings. It runs after the gates and
// the closing checkpoint, so what it writes disturbs neither.
func tracedRun(cfg runConfig, e *env, res *result) error {
	tr := cfg.tracer
	if tr == nil {
		tr = newTracer()
	}
	budget := cfg.budget
	rn := e.readNode()
	st := newStager(rn)
	if rn == e.replica {
		// The writer's traced transactions reach the follower a moment
		// after they commit; the calls made straight into the replica's
		// mapper wait for that moment to pass.
		st.settle = func() error { return caughtUp(e) }
	}
	td := newTraceData()
	if err := replay(tr, e, st, td, budget); err != nil {
		return err
	}

	// One staged execution of each analytic template on this dataset: the
	// actual cardinalities a cost model is to be judged against.
	for _, t := range templates {
		var runs []int64
		var last stages
		for i := 0; i < budget.templates; i++ {
			var err error
			if last, err = st.retrieve(tr, -1, -1, t.text(e.d, 0)); err != nil {
				return fmt.Errorf("template %s: %w", t.name, err)
			}
			runs = append(runs, int64(last.run))
		}
		ms := median(sortedInts(runs)) / 1e6
		res.layer("exec."+t.name+"_ms", ms, len(runs))
		res.Templates = append(res.Templates, templateRow{t.name, ms, last.res.Stats.Instances, last.res.Stats.Rows})
	}

	// Allocations per operation, over a bare pass of the continued streams.
	var m0, m1 runtime.MemStats
	tl := newTally()
	start := time.Now()
	n := 0
	runtime.ReadMemStats(&m0)
	for ; n < budget.allocOps && time.Since(start) < budget.allocTime; n++ {
		o := e.gens[n%len(e.gens)].next()
		db := e.primary.db
		if o.read {
			db = rn.db
		}
		execute(embedded{db}, o, tl, false)
	}
	runtime.ReadMemStats(&m1)
	if tl.failed > 0 {
		return fmt.Errorf("allocation pass: %v", tl.errs)
	}
	res.layer("sim.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	res.layer("sim.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), n)

	// Mapper probe, on the keys the point reads touched.
	if st.settle != nil {
		if err := st.settle(); err != nil {
			return err
		}
	}
	lp, err := probeLUC(tr, rn, touchedStudents(e))
	if err != nil {
		return err
	}
	res.layer("luc.lookup_unique_ns", medianDur(lp.lookupUnique), len(lp.lookupUnique))
	res.layer("luc.get_eva_ns", medianDur(lp.getEVA), len(lp.getEVA))
	res.layer("luc.read_batch_ns_per_rec", lp.readBatchRec, len(lp.lookupUnique))
	res.layer("luc.index_scan_ns_per_key", lp.indexScanKey, len(lp.lookupUnique)/100+1)

	// Storage probes on a scratch store, log and file of the benchmark's own.
	scratchDir := filepath.Join(cfg.tmp, "scratch")
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	sp, err := probeStore(tr, scratchDir, max(res.dirtyPages, 1))
	if err != nil {
		return err
	}
	res.layer("btree.put_ns", medianDur(sp.btreePut), len(sp.btreePut))
	res.layer("btree.get_ns", medianDur(sp.btreeGet), len(sp.btreeGet))
	res.layer("btree.seek_next_ns_per_key", sp.seekNextKey, 1)
	res.layer("btree.pages_per_get", sp.pagesPerGet, len(sp.btreeGet))
	res.layer("pager.get_hit_ns", medianDur(sp.pagerHit), len(sp.pagerHit))
	res.layer("pager.get_miss_ns", medianDur(sp.pagerMiss), len(sp.pagerMiss))
	res.layer("dmsii.commit_ns", medianDur(sp.dmsiiCommit), len(sp.dmsiiCommit))
	res.layer("wal.commit_ns", medianDur(sp.walCommit), len(sp.walCommit))
	res.layer("wal.fsync_floor_ns", medianDur(sp.fsyncFloor), len(sp.fsyncFloor))
	res.Machine.FsyncFloorNs = medianDur(sp.fsyncFloor)

	if err := replProbes(cfg, tr, e, res, td, budget); err != nil {
		return err
	}
	td.report(res)
	return nil
}

// replay continues every client's stream, one client at a time: updates
// embedded on the primary, reads on the read node — three of four both as
// db.Query and staged, the fourth through a connection.
func replay(tr *tracer, e *env, st *stager, td *traceData, budget traceBudget) error {
	rn := st.n
	if rn.srv == nil {
		if err := rn.serve(false); err != nil {
			return err
		}
	}
	rc, err := client.Dial(rn.addr)
	if err != nil {
		return err
	}
	defer rc.Close()
	var scratch bytes.Buffer
	var frameBuf []byte
	opID, reads, local := 0, 0, 0
	for i, g := range e.gens {
		start := time.Now()
		for n := 0; n < budget.ops/len(e.gens) && time.Since(start) < budget.time/time.Duration(len(e.gens)); n++ {
			o := g.next()
			opID++
			switch {
			case !o.read:
				err = tracedTxn(tr, e.primary.db, opID, o, td)
			case reads%4 == 3:
				// Every fourth read goes through the connection instead: a
				// remote and an embedded db.Query of one text would find
				// each other's plan in the cache.
				reads++
				frameBuf, err = tracedRemoteRead(tr, rc, opID, o, td, &scratch, frameBuf)
			default:
				reads++
				local++
				err = tracedRead(tr, rn, st, opID, local, o, td)
			}
			if err != nil {
				return fmt.Errorf("client %d %s: %w", i, o.class, err)
			}
		}
	}
	return nil
}

// tracedRead measures one Retrieve two ways on the read node: db.Query as
// a whole, and its stages one exported call at a time. Which goes first
// alternates, so that neither is always the one that finds the caches warm.
func tracedRead(tr *tracer, n *node, st *stager, opID, seq int, o op, td *traceData) error {
	dml := o.stmts[0]
	spans := len(tr.spans)
	root := tr.begin("op", o.class, -1, opID)
	var wall time.Duration
	var missed bool
	var res *sim.Result
	var err error
	query := func() {
		before := n.db.Stats().Plans.Misses
		wall = tr.call("sim", "Query", root, opID, func() { res, err = n.db.Query(dml) })
		missed = n.db.Stats().Plans.Misses > before
	}
	var s stages
	if seq%2 == 0 {
		query()
	}
	if err == nil {
		s, err = st.retrieve(tr, root, opID, dml)
	}
	if err == nil && seq%2 != 0 {
		query()
	}
	tr.end(root)
	if err != nil {
		return err
	}
	if res.NumRows() != s.res.NumRows() || (o.wantRows >= 0 && res.NumRows() != o.wantRows) {
		return fmt.Errorf("staged Retrieve returned %d rows, db.Query %d: %s", s.res.NumRows(), res.NumRows(), dml)
	}
	td.readSpans += len(tr.spans) - spans
	td.parse = append(td.parse, int64(s.parse))
	td.bind = append(td.bind, int64(s.bind))
	td.optimize = append(td.optimize, int64(s.optimize))
	td.compile = append(td.compile, int64(s.compile))
	td.run = append(td.run, int64(s.run))
	td.wall = append(td.wall, int64(wall))
	td.local[o.class] = append(td.local[o.class], int64(wall))
	td.sumWall += int64(wall)
	staged := s.run
	if missed { // db.Query paid for a plan too
		staged += s.planned()
	}
	td.staged = append(td.staged, int64(staged))
	return nil
}

// tracedRemoteRead measures one Retrieve through client.Conn, and the
// wire calls that round trip made, replayed on its result.
func tracedRemoteRead(tr *tracer, rc *client.Conn, opID int, o op, td *traceData, scratch *bytes.Buffer, frameBuf []byte) ([]byte, error) {
	root := tr.begin("op", o.class+"(remote)", -1, opID)
	var res *sim.Result
	var err error
	wall := tr.call("client", "Conn.Query", root, opID, func() { res, err = rc.Query(o.stmts[0]) })
	if err != nil {
		tr.end(root)
		return frameBuf, err
	}
	wc, frameBuf, err := wireCalls(tr, root, opID, res, scratch, frameBuf)
	tr.end(root)
	if err != nil {
		return frameBuf, err
	}
	td.remoteWall[o.class] = append(td.remoteWall[o.class], int64(wall))
	td.wire[o.class] = append(td.wire[o.class], int64(wc.encode+wc.decode+wc.frame))
	td.encode = append(td.encode, int64(wc.encode))
	td.decode = append(td.decode, int64(wc.decode))
	td.frame = append(td.frame, int64(wc.frame))
	td.wireBytes += int64(wc.bytes)
	td.wireRows += int64(wc.rows)
	return frameBuf, nil
}

// tracedTxn runs one update operation embedded, timing Begin, each
// statement and Commit. Autocommit statements are one call and go to no
// metric; they are in the trace.
func tracedTxn(tr *tracer, db *sim.Database, opID int, o op, td *traceData) error {
	tl := newTally()
	if !o.explicit {
		root := tr.begin("op", o.class, -1, opID)
		tr.call("sim", "Exec(autocommit)", root, opID, func() { execute(embedded{db}, o, tl, false) })
		tr.end(root)
		if tl.failed > 0 {
			return fmt.Errorf("%v", tl.errs)
		}
		return nil
	}
	ctx := context.Background()
	root := tr.begin("op", o.class, -1, opID)
	defer tr.end(root)
	var tx *sim.Tx
	var err error
	td.txBegin = append(td.txBegin, int64(tr.call("sim", "Begin", root, opID, func() { tx, err = db.Begin(ctx) })))
	if err != nil {
		return err
	}
	for _, s := range stampNow(o.stmts) {
		d := tr.call("sim", "Tx.Exec", root, opID, func() { _, err = tx.Exec(ctx, s) })
		if err != nil {
			tx.Rollback()
			return err
		}
		td.txExec = append(td.txExec, int64(d))
	}
	// CommitTraced is Commit plus the engine's own breakdown, of which the
	// group's WAL write and fsync is the part the device decides.
	d := tr.call("sim", "Tx.Commit", root, opID, func() {
		ct, e := tx.CommitTraced(ctx)
		td.txCommitCPU = append(td.txCommitCPU, int64(ct.Total-ct.Fsync))
		err = e
	})
	td.txCommit = append(td.txCommit, int64(d))
	return err
}

// touchedStudents are the students the point reads of the streams
// touched; a workload without point reads gets a fixed spread.
func touchedStudents(e *env) []int {
	var out []int
	for _, g := range e.gens {
		switch g := g.(type) {
		case *pointReads:
			out = append(out, g.touched...)
		case *writer:
			out = append(out, g.reads.touched...)
		case *replicaReads:
			out = append(out, g.reads.touched...)
		}
	}
	if len(out) > 2048 {
		out = out[:2048]
	}
	for i := 0; len(out) < 512; i++ {
		out = append(out, i*7919%e.d.Students)
	}
	return out
}

// canonicalWriter is the generator of the canonical transfer
// transactions: the workload's first writer when it has one (its model of
// the data is exact), else a fresh one over the untouched load.
func canonicalWriter(e *env, seed int64) *writer {
	for _, g := range e.gens {
		if w, ok := g.(*writer); ok {
			w.mix = [4]int{0, 100, 100, 100}
			w.stamp = true
			return w
		}
	}
	w := newWriter(e.d, 0, seed)
	w.mix = [4]int{0, 100, 100, 100}
	w.stamp = true
	return w
}

// replProbes runs the canonical replication operations: commits with and
// without a publisher attached, replica apply of the groups those commits
// published, and — on a workload that is not itself replicated — a
// follower's catch-up and a short replicated window for staleness.
func replProbes(cfg runConfig, tr *tracer, e *env, res *result, td *traceData, budget traceBudget) error {
	cw := canonicalWriter(e, cfg.seed)
	// commits runs the canonical transactions and returns what each Commit
	// cost beyond its group's WAL write and fsync.
	commits := func() ([]int64, error) {
		before := len(td.txCommitCPU)
		for i := 0; i < budget.txns; i++ {
			if err := tracedTxn(tr, e.primary.db, -1, cw.next(), td); err != nil {
				return nil, err
			}
		}
		return td.txCommitCPU[before:], nil
	}
	var with, without []int64
	var err error
	own := e.replica == nil // the replica is the probe's, not the workload's
	if own {
		if without, err = commits(); err != nil {
			return err
		}
		if err := e.replicate(); err != nil {
			return err
		}
		res.layer("repl.catchup_ms", float64(e.catchup)/1e6, 1)
	}
	applied, err := applyProbe(tr, e.primary, filepath.Join(cfg.tmp, "scratch"), func() error {
		with, err = commits()
		return err
	})
	if err != nil {
		return err
	}
	if own {
		// The short replicated window: this workload's writer model, the
		// replicated workload's sessions.
		me := &env{w: workloads[len(workloads)-1], d: e.d, dir: e.dir, primary: e.primary, replica: e.replica}
		me.gens = []generator{cw, &replicaReads{reads: newPointReads(e.d, cfg.seed*1000+2)}}
		if err := me.dial(); err != nil {
			return err
		}
		var lagMax uint64
		ws := summarize(me.runWindow(budget.replWindow, func() {
			if l := e.replica.lagGroups(e.primary); l > lagMax {
				lagMax = l
			}
		}))
		for _, s := range me.sessions {
			s.Close()
		}
		if ws.failed > 0 {
			return fmt.Errorf("replicated probe window: %v", ws.errs)
		}
		v, pct := tail(ws.stale)
		res.layer("repl.lag_groups_max", float64(lagMax), 1)
		res.layer("repl.staleness_p50_ms", median(ws.stale)/1e6, len(ws.stale))
		res.layer("repl.staleness_p99_ms", v/1e6, len(ws.stale))
		res.TailPct["repl.staleness_p99_ms"] = pct
		// Position only: comparing contents is the replicated workload's
		// gate (see README.md, "Engine defect found").
		if err := caughtUp(e); err != nil {
			return fmt.Errorf("replicated probe: %w", err)
		}
	} else {
		// The workload's own publisher: seal it to commit without one.
		e.primary.pub.Seal()
		if without, err = commits(); err != nil {
			return err
		}
	}
	res.layer("repl.apply_group_us", medianDur(applied)/1e3, len(applied))
	res.layer("repl.publish_overhead_us", (median(sortedInts(with))-median(sortedInts(without)))/1e3, len(with))
	return nil
}

// trimmedSums adds up the staged calls and the walls of the embedded reads,
// leaving out the twentieth with the lowest and the twentieth with the
// highest staged/wall ratio: a read that met a garbage collection on one
// side only would otherwise tilt the sums. Half the reads ran the staged
// calls first and half db.Query, so warm caches favour neither sum.
func (td *traceData) trimmedSums() (staged, wall float64, kept int) {
	order := make([]int, len(td.wall))
	for i := range order {
		order[i] = i
	}
	r := func(i int) float64 { return ratio(float64(td.staged[i]), float64(td.wall[i])) }
	sort.Slice(order, func(a, b int) bool { return r(order[a]) < r(order[b]) })
	trim := len(order) / 20
	for _, i := range order[trim : len(order)-trim] {
		staged += float64(td.staged[i])
		wall += float64(td.wall[i])
	}
	return staged, wall, len(order) - 2*trim
}

// spanCostNs is the cost of recording one span.
func spanCostNs() float64 {
	const n = 20000
	tr := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.call("probe", "empty", -1, i, func() {})
	}
	return float64(time.Since(start)) / n
}

// report turns the replay's samples into the per-layer metrics.
func (td *traceData) report(res *result) {
	med := func(v []int64) float64 { return median(sortedInts(v)) }
	res.layer("parser.parse_ns", med(td.parse), len(td.parse))
	res.layer("query.bind_ns", med(td.bind), len(td.bind))
	res.layer("plan.optimize_ns", med(td.optimize), len(td.optimize))
	res.layer("exec.compile_ns", med(td.compile), len(td.compile))
	res.layer("exec.run_ns", med(td.run), len(td.run))
	res.layer("sim.query_ns", med(td.wall), len(td.wall))
	stagedSum, wallSum, kept := td.trimmedSums()
	res.layer("sim.query_self_ns", ratio(wallSum-stagedSum, float64(kept)), kept)
	res.layer("sim.stage_coverage", ratio(stagedSum, wallSum), kept)
	res.layer("sim.tx_begin_ns", med(td.txBegin), len(td.txBegin))
	res.layer("sim.tx_exec_ns", med(td.txExec), len(td.txExec))
	res.layer("sim.tx_commit_ns", med(td.txCommit), len(td.txCommit))

	// Tracing overhead, computed: the spans are the benchmark's own, around
	// calls it makes from outside, so what they add to an operation is the
	// bookkeeping of the spans it records.
	res.layer("sim.trace_overhead_share",
		ratio(float64(td.readSpans)*spanCostNs(), float64(td.sumWall)), len(td.wall))

	res.layer("wire.encode_result_ns", med(td.encode), len(td.encode))
	res.layer("wire.decode_result_ns", med(td.decode), len(td.decode))
	res.layer("wire.frame_rw_ns", med(td.frame), len(td.frame))
	res.layer("wire.result_bytes_per_row", ratio(float64(td.wireBytes), float64(td.wireRows)), len(td.encode))

	// Remote wall, and the residual after the embedded wall and the wire
	// calls of the same classes: loopback TCP plus session dispatch.
	var all []int64
	var residual, weight float64
	classes := make([]string, 0, len(td.remoteWall))
	for class := range td.remoteWall {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		r := td.remoteWall[class]
		all = append(all, r...)
		local := td.local[class]
		if len(local) == 0 {
			continue
		}
		w := float64(len(r))
		residual += w * (med(r) - med(local) - med(td.wire[class]))
		weight += w
	}
	res.layer("client.query_us", med(all)/1e3, len(all))
	res.layer("server.overhead_us", ratio(residual, weight)/1e3, int(weight))
}
