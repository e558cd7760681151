package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sim"
	"sim/client"
)

// workload names one traffic mix on one dataset. The names are fixed:
// later issues cite them.
type workload struct {
	Name string
	Why  string // one line, as in BENCHMARK.json
	data dataset
	// remote puts the clients on client.Conn through a loopback server;
	// replicated adds a file-backed follower that serves the reads.
	remote, replicated bool
	// gens builds the client generators, one per closed-loop client.
	gens func(d dataset, seed int64) []generator
}

// clientsPerWorkload is the number of closed-loop clients: one per core of
// the two-core box the bounds were fixed on. A closed loop (each client
// sends its next operation when the previous one returned) is what an
// embedded caller or a connection-per-thread application does; there is
// no open-loop rate to fall behind.
const clientsPerWorkload = 2

var workloads = []workload{
	{
		Name: "point-read",
		Why:  "embedded point lookups with inline literals on univ-m: parser, binder, optimizer, plan cache and LUC/B-tree probes do the work; WAL, wire, server, repl do none; the pager never misses",
		data: univM,
		gens: func(d dataset, seed int64) []generator {
			return []generator{newPointReads(d, seed*1000+1), newPointReads(d, seed*1000+2)}
		},
	},
	{
		Name: "analytic-remote", remote: true,
		Why:  "seven fixed scan/join/aggregate templates on univ-l (3x the pool) over loopback: executor, LUC cache thrash, B-tree cursors, pager misses, wire and server work; parser and planner idle",
		data: univL,
		gens: func(d dataset, seed int64) []generator {
			return []generator{newAnalytics(d, seed*1000+1), newAnalytics(d, seed*1000+2)}
		},
	},
	{
		Name: "txn-durable",
		Why:  "two embedded writers on disjoint partitions of univ-m with real fsync: integrity checks, inverse-EVA sync, latches, WAL group commit, write-back, checkpoints; 10% reads show the cost to readers",
		data: univM,
		gens: func(d dataset, seed int64) []generator {
			return []generator{newWriter(d, 0, seed*1000+1), newWriter(d, 1, seed*1000+2)}
		},
	},
	{
		Name: "mixed-replicated", remote: true, replicated: true,
		Why:  "one remote writer on a primary, one remote reader on its file-backed follower: the only workload where repl publish/apply, the remote commit path and version chains under apply do work",
		data: univM,
		gens: func(d dataset, seed int64) []generator {
			w := newWriter(d, 0, seed*1000+1)
			w.mix = [4]int{0, 100, 100, 100} // transfers only
			w.stamp = true
			return []generator{w, &replicaReads{reads: newPointReads(d, seed*1000+2)}}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// -------------------------------------------------------------- sessions

// session is how a client reaches the database: embedded calls or a
// connection. Txn runs Begin; the statements; Commit.
type session interface {
	Query(dml string) (*sim.Result, error)
	Exec(dml string) (int, error)
	Txn(stmts []string) error
	Close() error
}

type embedded struct{ db *sim.Database }

func (e embedded) Query(dml string) (*sim.Result, error) { return e.db.Query(dml) }
func (e embedded) Exec(dml string) (int, error)          { return e.db.Exec(dml) }
func (e embedded) Close() error                          { return nil }

func (e embedded) Txn(stmts []string) error {
	ctx := context.Background()
	tx, err := e.db.Begin(ctx)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := tx.Exec(ctx, s); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// conn is the part of client.Conn and client.Multi the clients use.
type conn interface {
	Query(dml string) (*sim.Result, error)
	Exec(dml string) (int, error)
	Begin(ctx context.Context, opts ...client.TxOption) (*client.Tx, error)
	Close() error
}

type remote struct{ c conn }

func (r remote) Query(dml string) (*sim.Result, error) { return r.c.Query(dml) }
func (r remote) Exec(dml string) (int, error)          { return r.c.Exec(dml) }
func (r remote) Close() error                          { return r.c.Close() }

func (r remote) Txn(stmts []string) error {
	ctx := context.Background()
	tx, err := r.c.Begin(ctx)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := tx.Exec(ctx, s); err != nil {
			tx.Rollback(ctx)
			return err
		}
	}
	return tx.Commit(ctx)
}

// ------------------------------------------------------------------- env

// env is one set-up workload: the nodes, and one session and generator
// per client.
type env struct {
	w        workload
	d        dataset
	dir      string
	primary  *node
	replica  *node // serves the reads when the workload is replicated
	catchup  time.Duration
	loadDML  int64 // bytes of DML text that built the dataset
	sessions []session
	gens     []generator
}

// readNode is the node whose counters describe the read path.
func (e *env) readNode() *node {
	if e.replica != nil {
		return e.replica
	}
	return e.primary
}

// setUp builds the workload's dataset from empty under dir through the
// public API, checkpoints it, and starts the servers and the follower the
// workload needs. workers 0 is the engine default.
func setUp(w workload, d dataset, dir string, seed int64, workers int) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, d: d, dir: dir}
	var err error
	if e.primary, err = openNode(filepath.Join(dir, "primary.db"), workers); err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	if err := e.primary.db.DefineSchema(schemaDDL); err != nil {
		return fail(err)
	}
	if e.loadDML, err = d.load(e.primary.db, seed); err != nil {
		return fail(err)
	}
	if err := e.primary.db.Checkpoint(); err != nil {
		return fail(err)
	}
	if w.replicated {
		if err := e.replicate(); err != nil {
			return fail(err)
		}
	} else if w.remote {
		if err := e.primary.serve(false); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// replicate attaches a publisher and a server to the primary and starts a
// caught-up, served follower. The traced run calls it on workloads that
// are not replicated, to run the canonical replication probes.
func (e *env) replicate() error {
	e.primary.stopServer()
	if err := e.primary.publish(); err != nil {
		return err
	}
	if err := e.primary.serve(false); err != nil {
		return err
	}
	var err error
	e.replica, e.catchup, err = follow(filepath.Join(e.dir, "replica.db"), e.primary.addr)
	if err != nil {
		return err
	}
	return e.replica.serve(true)
}

// connect builds the workload's generators and opens their sessions.
func (e *env) connect(seed int64) error {
	e.gens = e.w.gens(e.d, seed)
	return e.dial()
}

// dial opens one session per generator.
func (e *env) dial() error {
	for i := range e.gens {
		var s session
		switch {
		case !e.w.remote:
			s = embedded{e.primary.db}
		case e.w.replicated && i > 0:
			// DialMulti sprays Query over the replicas and pins updates
			// to the primary, its first address.
			m, err := client.DialMulti([]string{e.primary.addr, e.replica.addr})
			if err != nil {
				return err
			}
			s = remote{m}
		default:
			c, err := client.Dial(e.primary.addr)
			if err != nil {
				return err
			}
			s = remote{c}
		}
		e.sessions = append(e.sessions, s)
	}
	return nil
}

func (e *env) close() {
	for _, s := range e.sessions {
		s.Close()
	}
	e.sessions = nil
	if e.replica != nil {
		e.replica.close()
		e.replica = nil
	}
	if e.primary != nil {
		e.primary.close()
		e.primary = nil
	}
}

// ---------------------------------------------------------------- clients

// tally is what one client measured in one window.
type tally struct {
	reads, txns hist    // latencies, ns
	stale       []int64 // marker ages, ns
	byClass     map[string]*hist
	attempted   int64
	failed      int64
	maxOp       int64 // longest operation, ns
	dmlBytes    int64 // DML text of accepted updates
	addBytes    int64 // the part of it that added data: Insert and include
	elapsed     time.Duration
	errs        []string
	rowsOf      map[string]int // rows per read text, to check a text always answers the same
}

func newTally() *tally {
	return &tally{byClass: map[string]*hist{}, rowsOf: map[string]int{}}
}

// record files one successful operation's latency.
func (t *tally) record(o op, d int64) {
	if o.read {
		t.reads.add(d)
	} else {
		t.txns.add(d)
	}
	h := t.byClass[o.class]
	if h == nil {
		h = &hist{}
		t.byClass[o.class] = h
	}
	h.add(d)
}

func (t *tally) fail(o op, err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", o.class, err))
	}
}

// execute runs one operation on s and files its outcome in t. stable says
// that a read text must answer the same every time: true when nothing
// writes while the clients run.
func execute(s session, o op, t *tally, stable bool) {
	t.attempted++
	stmts := stampNow(o.stmts)
	start := time.Now()
	var err error
	var res *sim.Result
	switch {
	case o.read:
		res, err = s.Query(stmts[0])
	case o.explicit:
		err = s.Txn(stmts)
	default:
		_, err = s.Exec(stmts[0])
	}
	d := int64(time.Since(start))
	if d > t.maxOp {
		t.maxOp = d
	}
	if err != nil {
		t.fail(o, err)
		return
	}
	if !o.read {
		t.record(o, d)
		for _, st := range stmts {
			t.dmlBytes += int64(len(st))
			if o.adds {
				t.addBytes += int64(len(st))
			}
		}
		return
	}
	rows := res.NumRows()
	if o.wantRows >= 0 && rows != o.wantRows {
		t.fail(o, fmt.Errorf("%d rows, want %d: %s", rows, o.wantRows, stmts[0]))
		return
	}
	if stable {
		if prev, seen := t.rowsOf[stmts[0]]; seen && prev != rows {
			t.fail(o, fmt.Errorf("%d rows, earlier %d: %s", rows, prev, stmts[0]))
			return
		}
		t.rowsOf[stmts[0]] = rows
	}
	if o.class == "marker" {
		age, err := markerAge(res)
		if err != nil {
			t.fail(o, err)
			return
		}
		if age >= 0 { // the marker has been stamped at least once
			t.stale = append(t.stale, age)
		}
	}
	t.record(o, d)
}

// stampNow replaces nowToken, which only a last statement carries, by the
// wall clock.
func stampNow(stmts []string) []string {
	last := len(stmts) - 1
	if !strings.Contains(stmts[last], nowToken) {
		return stmts
	}
	out := append([]string(nil), stmts...)
	out[last] = strings.Replace(out[last], nowToken, strconv.FormatInt(time.Now().UnixNano(), 10), 1)
	return out
}

// markerAge parses "<seq>@<unix-ns>" out of the marker department's name
// and returns how old the stamp is, or -1 before the first stamp.
func markerAge(res *sim.Result) (int64, error) {
	rows := res.Rows()
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("marker: unexpected result shape")
	}
	name := strings.Trim(rows[0][0].String(), `"`)
	_, ns, ok := strings.Cut(name, "@")
	if !ok {
		return 0, fmt.Errorf("marker: %q has no stamp", name)
	}
	at, err := strconv.ParseInt(ns, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("marker: %q: %v", name, err)
	}
	if at == 0 {
		return -1, nil
	}
	return time.Now().UnixNano() - at, nil
}

// runWindow runs every client closed-loop for dur and calls sample about
// ten times a second meanwhile.
func (e *env) runWindow(dur time.Duration, sample func()) []*tally {
	stable := len(e.gens) > 0 && !e.writes()
	tallies := make([]*tally, len(e.gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := range e.gens {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tallies[i]
			for time.Now().Before(deadline) {
				execute(e.sessions[i], e.gens[i].next(), t, stable)
			}
			t.elapsed = time.Since(start)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return tallies
		case <-tick.C:
			if sample != nil {
				sample()
			}
		}
	}
}

// writes reports whether any client of the workload updates.
func (e *env) writes() bool {
	for _, g := range e.gens {
		if _, ok := g.(*writer); ok {
			return true
		}
	}
	return false
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ----------------------------------------------------------------- runs

// runConfig is one invocation of one workload.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration
	warmup time.Duration
	trace  bool
	scale  int    // divides the dataset (smoke test); 1 for real runs
	setups int    // times the dataset is built; the median is setup_s
	tmp    string // directory the run may write under
	tracer *tracer
	// The smoke test shrinks these three.
	drillTxns  int         // transactions of the durability drill
	budget     traceBudget // caps of the traced run
	separation bool        // check that the workload separated the layers as designed
}

// counters is the snapshot of engine counters a window's ratios are
// deltas of.
type counters struct {
	read, write sim.Stats
	conflicts   uint64
	srvOut      uint64
	srvReqs     uint64
}

func (e *env) counters() counters {
	c := counters{read: e.readNode().db.Stats(), write: e.primary.db.Stats(), conflicts: e.primary.conflicts()}
	for _, n := range []*node{e.primary, e.replica} {
		if n != nil && n.srv != nil {
			st := n.srv.Stats()
			c.srvOut += st.BytesOut
			c.srvReqs += st.Requests
		}
	}
	return c
}

// run executes one workload end to end and returns its result.
func run(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	d := cfg.w.data.scaled(cfg.scale)

	// Set-up, several times: the median is setup_s. The first build runs
	// with Workers: 1 and answers the reference queries of the gate.
	var e *env
	var ref reference
	var setups []int64
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("set%d", i))
		workers := 0
		if i == 0 && cfg.setups > 1 {
			workers = 1
		}
		start := time.Now()
		var err error
		if e, err = setUp(cfg.w, d, dir, cfg.seed, workers); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, int64(time.Since(start)))
		if i == 0 {
			if ref, err = answerReference(e.primary.db, d); err != nil {
				e.close()
				return nil, err
			}
		}
		if i < cfg.setups-1 {
			e.close()
			e = nil
			os.RemoveAll(dir)
		}
	}
	defer func() { e.close() }()
	if err := e.connect(cfg.seed); err != nil {
		return nil, err
	}
	res.gate("reference results", checkReference(e, ref))

	// Warm-up, then the timed window with tracing off.
	warm := summarize(e.runWindow(cfg.warmup, nil))
	if warm.failed > 0 {
		res.gate("warm-up", fmt.Errorf("%d of %d operations failed: %v", warm.failed, warm.attempted, warm.errs))
	}
	for _, n := range []*node{e.primary, e.replica} {
		if n != nil {
			n.db.ResetStats()
		}
	}
	before := e.counters()
	_, flightSeq := e.primary.checkpointsSince(0)
	var liveMax int64
	var lagMax uint64
	tallies := e.runWindow(cfg.window, func() {
		if v := e.readNode().store.LiveVersions(); v > liveMax {
			liveMax = v
		}
		if v := e.primary.store.LiveVersions(); v > liveMax {
			liveMax = v
		}
		if e.replica != nil {
			if l := e.replica.lagGroups(e.primary); l > lagMax {
				lagMax = l
			}
		}
	})
	after := e.counters()
	checkpoints, _ := e.primary.checkpointsSince(flightSeq)

	w := summarize(tallies)
	res.Attempted, res.Failed = w.attempted, w.failed
	res.Errors = append(res.Errors, w.errs...)
	res.windowMetrics(cfg, e, w, before, after, checkpoints, liveMax, lagMax)

	// The closing checkpoint, which space_amp reads the file size after,
	// then the correctness gates.
	ckStart := time.Now()
	if err := e.primary.store.Checkpoint(); err != nil {
		return nil, err
	}
	res.layer("dmsii.checkpoint_ms", float64(time.Since(ckStart))/1e6, 1)
	size, err := e.primary.fileBytes()
	if err != nil {
		return nil, err
	}
	res.runGates(cfg, e, w)
	res.e2e("space_amp", ratio(float64(size), float64(e.loadDML+warm.addBytes+w.addBytes)), 1)
	res.e2e("setup_s", median(sortedInts(setups))/1e9, len(setups))
	res.e2e("peak_rss_mb", peakRSSMB(), 1)
	if cfg.separation {
		res.separation()
	}
	if cfg.trace {
		if err := tracedRun(cfg, e, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}
