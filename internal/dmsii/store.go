// Package dmsii implements the record-store substrate SIM runs on. The
// paper built SIM over DMSII, Unisys's network-model DBMS, relying on it
// for "transaction, cursor and I/O management" (§1); this package is the
// equivalent substrate built from scratch: named structures (clustered
// B+trees), a page allocator with a persistent freelist, concurrent
// transactions with WAL-backed atomic group commit, and crash recovery.
//
// Concurrency model: any number of transactions may be open (BeginSession),
// their write phases serialized on a store-wide latch while commit fsync and
// write-back are pipelined — see Store and Txn. Readers never take a lock
// the writer holds: they read versioned views (AcquireView), so sim.Database
// needs no statement-level reader/writer exclusion on top.
package dmsii

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sim/internal/btree"
	"sim/internal/obs"
	"sim/internal/pager"
	"sim/internal/wal"
)

// Meta page (page 0) layout. The NodeState record is the node's own: a
// shipped page 0 replaces every byte but it (see installImages), so a
// follower keeps its record and takes the primary's statistics version.
const (
	magicOff        = 0 // 8 bytes
	versionOff      = 8
	freelistOff     = 12
	dirRootOff      = 16
	nodeStateOff    = 20 // NodeState: five 8-byte fields
	nodeStateEnd    = nodeStateOff + 40
	statsVersionOff = nodeStateEnd // 8 bytes (see RaiseStatsVersion)
)

var magic = [8]byte{'S', 'I', 'M', 'D', 'B', '0', '0', '1'}

// checkpointThreshold is the WAL size that triggers an automatic
// checkpoint at commit.
const checkpointThreshold = 8 << 20

// walKeep is the WAL file length a checkpoint keeps for the next log
// cycle to overwrite: the threshold plus one ordinary commit group. A
// file one very large group (a bulk load, a snapshot install) left
// longer is cut back to it.
const walKeep = checkpointThreshold + 128<<10

// Store is an open database file: a directory of named structures plus the
// transaction machinery. The live structures are the write-latch holder's;
// dirMu serializes the live structure directory. Everyone else reads
// through versioned views (see below).
//
// Multiple transactions may be open concurrently (BeginSession), but their
// write phases are serialized on the store-wide write latch: a transaction
// holds the latch from its first write until its commit snapshot, at which
// point the next writer may proceed while the first one's fsync is still
// in flight. That pipeline is what feeds WAL group commit. The store
// remembers the entities the write-latch holder has written
// (Txn.RecordWrite); a transaction that has not written yet checks its
// targets against that set before queueing (Txn.CheckEntity) and fails
// fast with ErrConflict on a hit. The holder never conflicts, so a
// conflict never aborts a transaction that has written, and transactions
// writing distinct entities of the same class do not conflict.
//
// Reads are versioned: AcquireView returns the read view of the newest
// published commit stamp, whose structures resolve pages through
// copy-on-write version chains (pager.Pool.ViewPage) — snapshot readers
// never block writers and never see uncommitted bytes. Every reader at
// one stamp shares that one View: its version-GC pin, its structure
// handles and whatever the upper layers attach to it.
type Store struct {
	file      *pager.ChecksumFile
	pool      *pager.Pool
	log       *wal.Log
	dir       *btree.Tree
	dirMu     sync.Mutex // guards dir traffic and the open map
	open      map[string]*Structure
	closed    atomic.Bool
	recovered wal.RecoverInfo // what recovery did when the store opened

	view atomic.Pointer[View]      // the current read view; nil once retired
	tail atomic.Pointer[imageTail] // pages a snapshot install left past its image, awaiting cutTail

	writeSem   chan struct{} // capacity-1 store-wide write latch
	writeHeld  atomic.Bool   // the write latch is currently held
	writeLatch *obs.Latch    // contention profile for the store write latch

	latchMu   sync.Mutex
	touched   map[entityKey]struct{}    // entities the write-latch holder has written (latchMu)
	classConf map[string]*atomic.Uint64 // per-class conflict counters (latchMu)

	reg         atomic.Pointer[obs.Registry]   // set by RegisterMetrics
	flightTxn   atomic.Pointer[obs.FlightRing] // txn begin/commit/conflict events
	flightStore atomic.Pointer[obs.FlightRing] // checkpoint/scrub incidents

	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  []*pager.Snapshot // committed snapshots awaiting write-back, FIFO
	// The statistics version of the live pages (their meta page's word),
	// and the newest one a published commit holds; see StatsVersion.
	liveStats, committedStats atomic.Uint64

	active     atomic.Int64 // open transactions
	conflicts  atomic.Uint64
	needsReset atomic.Bool // a commit group failed; discard before next write

	// auditCapture, when a test sets it, sees every commit snapshot right
	// after its capture (writeBack false) and again just before its
	// write-back (writeBack true).
	auditCapture func(snap *pager.Snapshot, writeBack bool)
}

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (default 1024).
	PoolPages int
}

// OpenFile opens (creating if necessary) a database at path, with its WAL
// at path+".wal". Committed transactions survive crashes.
func OpenFile(path string, opts Options) (*Store, error) {
	file, err := pager.OpenOSFile(path)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(path + ".wal")
	if err != nil {
		file.Close()
		return nil, err
	}
	return OpenFiles(file, log, opts)
}

// OpenFiles opens a store over an explicit page file and commit journal,
// running crash recovery first. OpenFile and OpenMemory assemble their
// stores through it, and so does the fault-injection harness over
// scripted storage.
func OpenFiles(file *pager.ChecksumFile, log *wal.Log, opts Options) (*Store, error) {
	s, err := open(file, log, opts)
	if err != nil {
		log.Close()
		file.Close()
		return nil, err
	}
	return s, nil
}

// RecoverInfo reports what crash recovery did when this store opened:
// batches replayed and whether a torn WAL tail was salvaged.
func (s *Store) RecoverInfo() wal.RecoverInfo { return s.recovered }

// OpenMemory opens a transient store whose page file and WAL are byte
// images in memory. It runs the file store's commit path — journal, group
// commit, write-back, checkpoints — and loses everything at Close.
func OpenMemory(opts Options) (*Store, error) {
	log, err := wal.OpenBacking(pager.NewMemByteFile())
	if err != nil {
		return nil, err
	}
	return OpenFiles(pager.NewChecksumFile(pager.NewMemByteFile()), log, opts)
}

func open(file *pager.ChecksumFile, log *wal.Log, opts Options) (*Store, error) {
	info, err := log.Recover(file)
	if err != nil {
		return nil, fmt.Errorf("dmsii: recover: %w", err)
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 1024
	}
	pool, err := pager.NewPool(file, opts.PoolPages)
	if err != nil {
		return nil, err
	}
	s := &Store{
		file:       file,
		pool:       pool,
		log:        log,
		recovered:  info,
		open:       make(map[string]*Structure),
		writeSem:   make(chan struct{}, 1),
		writeLatch: obs.NewLatch("store_write"),
		classConf:  make(map[string]*atomic.Uint64),
	}
	s.pendCond = sync.NewCond(&s.pendMu)
	n, err := file.NumPages()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if err := s.initialize(); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Existing database: validate the meta page and attach the directory.
	meta, err := pool.Get(0)
	if err != nil {
		return nil, err
	}
	defer pool.Release(meta)
	if [8]byte(meta.Data[magicOff:magicOff+8]) != magic {
		return nil, fmt.Errorf("dmsii: not a SIM database file")
	}
	if err := s.reattachDir(); err != nil {
		return nil, err
	}
	s.committedStats.Store(s.liveStats.Load())
	return s, nil
}

// initialize formats a brand-new database file.
func (s *Store) initialize() error {
	meta, err := s.pool.Allocate()
	if err != nil {
		return err
	}
	copy(meta.Data[magicOff:], magic[:])
	binary.BigEndian.PutUint32(meta.Data[versionOff:], 1)
	binary.BigEndian.PutUint32(meta.Data[freelistOff:], uint32(pager.Invalid))
	s.pool.MarkDirty(meta)
	s.pool.Release(meta)

	dir, err := btree.Create(s)
	if err != nil {
		return err
	}
	dir.SetOnRootChange(s.setDirRoot)
	s.dir = dir
	if err := s.setDirRoot(dir.Root()); err != nil {
		return err
	}
	// Persist the empty database shell through the commit path: capture,
	// journal, write back, publish. The format stamp must be published, or
	// a view pinned at stamp 0 would find the shell's pages captured at a
	// newer stamp with no older version to read.
	snap := s.pool.Snapshot()
	if err := s.log.Commit(snap.Frames()); err != nil {
		return err
	}
	if err := s.pool.WriteBack(snap); err != nil {
		return err
	}
	s.pool.Publish(snap.Stamp())
	return nil
}

// StatsVersion returns the statistics version of the live pages, stable
// under the write latch. committed reports that no raise is pending: the
// newest published commit has it. A rollback takes back a pending raise,
// so another state may later commit that number.
func (s *Store) StatsVersion() (v uint64, committed bool) {
	v = s.liveStats.Load()
	return v, v == s.committedStats.Load()
}

// RaiseStatsVersion adds one to the statistics version in the live meta
// page: the raise commits, replays and ships with the write-latch
// holder's transaction, whose statistics moved.
func (s *Store) RaiseStatsVersion() error {
	meta, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	s.pool.Prepare(meta)
	v := binary.BigEndian.Uint64(meta.Data[statsVersionOff:]) + 1
	binary.BigEndian.PutUint64(meta.Data[statsVersionOff:], v)
	s.pool.MarkDirty(meta)
	s.pool.Release(meta)
	s.liveStats.Store(v)
	return nil
}

func (s *Store) setDirRoot(id pager.PageID) error {
	meta, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	s.pool.Prepare(meta)
	binary.BigEndian.PutUint32(meta.Data[dirRootOff:], uint32(id))
	s.pool.MarkDirty(meta)
	s.pool.Release(meta)
	return nil
}

// Close checkpoints and releases the store. It closes both files whatever
// fails before, returning the first error; a failed checkpoint leaves the
// WAL holding every commit, so a reopen replays them.
func (s *Store) Close() error {
	if s.closed.Load() {
		return nil
	}
	if s.active.Load() > 0 {
		return fmt.Errorf("dmsii: Close with an open transaction")
	}
	unlock, err := s.lockWrites(false)
	if err != nil {
		return err
	}
	defer unlock()
	s.closed.Store(true)
	err = s.checkpointLocked()
	for _, release := range []func() error{s.log.Close, s.file.Close} {
		if cerr := release(); err == nil {
			err = cerr
		}
	}
	return err
}

// Checkpoint makes the database file current and starts a new WAL cycle
// (see wal.Log.Reset). It
// takes the store write latch itself, so callers must not hold it; open
// transactions block it until they finish.
func (s *Store) Checkpoint() error {
	unlock, err := s.lockWrites(false)
	if err != nil {
		return err
	}
	defer unlock()
	return s.checkpointLocked()
}

// checkpointLocked flushes the pool and resets the WAL, which keeps its
// file for the next cycle to overwrite; the caller holds the write latch
// with the commit pipeline drained.
func (s *Store) checkpointLocked() error {
	start := time.Now()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	// With the file current, cut what a snapshot install left past its
	// image and prune every page-version chain no pinned snapshot can still
	// see.
	if err := s.cutTail(); err != nil {
		return err
	}
	s.pool.SweepVersions()
	if err := s.log.Reset(walKeep); err != nil {
		return err
	}
	s.flightStore.Load().Event("store", "checkpoint", 0, time.Since(start), 0, "")
	return nil
}

// lockWrites acquires the store write latch outside any transaction,
// drains the commit pipeline (so the database file reflects every durable
// commit) and repairs state after a failed commit group. The returned
// func releases the latch. With try set it gives up at once, returning a
// nil func, when another writer holds the latch.
func (s *Store) lockWrites(try bool) (func(), error) {
	if !try {
		s.acquireSem(nil)
	} else {
		select {
		case s.writeSem <- struct{}{}:
		default:
			return nil, nil
		}
	}
	s.writeHeld.Store(true)
	release := func() { s.writeHeld.Store(false); <-s.writeSem }
	s.drainPending()
	if s.needsReset.Load() {
		if err := s.resetUncommitted(); err != nil {
			release()
			return nil, err
		}
	}
	return release, nil
}

// acquireSem takes the store write latch, recording contention on the
// writeLatch profile. A nil ctx means uncancellable acquisition; the wait
// duration (0 when uncontended) is returned so traced transactions can
// attribute it.
func (s *Store) acquireSem(ctx context.Context) (time.Duration, error) {
	select {
	case s.writeSem <- struct{}{}:
		s.writeLatch.Acquired()
		return 0, nil
	default:
	}
	start := time.Now()
	if ctx == nil {
		s.writeSem <- struct{}{}
	} else {
		select {
		case s.writeSem <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	d := time.Since(start)
	s.writeLatch.Waited(d)
	return d, nil
}

// Stats exposes buffer pool counters for the optimizer and benchmarks.
func (s *Store) Stats() pager.Stats { return s.pool.Stats() }

// WALStats exposes commit-journal counters.
func (s *Store) WALStats() wal.Stats { return s.log.Stats() }

// ResetStats zeroes the pool counters.
func (s *Store) ResetStats() { s.pool.ResetStats() }

// RegisterMetrics publishes the substrate's counters — buffer pool, WAL
// and page file — on an obs registry.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	s.pool.RegisterMetrics(r)
	s.log.RegisterMetrics(r)
	s.file.RegisterMetrics(r)
	r.CounterFunc("sim_txn_conflicts_total", "First-writer-wins conflicts with the write-latch holder.",
		func() float64 { return float64(s.conflicts.Load()) })
	r.GaugeFunc("sim_txn_active", "Open transactions.",
		func() float64 { return float64(s.active.Load()) })
	s.writeLatch.Register(r, "Store-wide write latch (one writer in its write phase).")
	s.reg.Store(r)
	s.flightTxn.Store(r.Flight().Component("txn"))
	s.flightStore.Store(r.Flight().Component("store"))
	s.latchMu.Lock()
	for name, c := range s.classConf {
		registerClassCounter(r, name, c)
	}
	s.latchMu.Unlock()
	r.OnReset(func() {
		s.latchMu.Lock()
		for _, c := range s.classConf {
			c.Store(0)
		}
		s.latchMu.Unlock()
	})
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// ErrConflict is wrapped by CheckEntity when the write-latch holder has
// already written the entity: first writer wins, the later one fails fast
// instead of queueing behind an open transaction known to conflict.
var ErrConflict = errors.New("dmsii: write-write conflict")

// Txn is a write transaction. Reads outside transactions observe the
// store's current cached state — read-uncommitted with respect to open
// transactions, last-committed otherwise.
type Txn struct {
	s     *Store
	done  bool
	wrote bool // holds the store-wide write latch

	id        uint64           // request/trace ID, 0 when untraced
	ct        *obs.CommitTrace // spans filled across the commit, nil unless tracing
	latchWait time.Duration    // accumulated store-write-latch wait
	stamp     uint64           // the commit's stamp, once captured
	onPublish func()           // see OnPublish
}

// OnPublish arranges for fn to run once the transaction's commit is
// durable, just before its stamp becomes visible to new read views: what
// fn publishes is in place for every reader of the commit's pages. It
// runs only for a commit that wrote pages, and not when the commit fails.
func (tx *Txn) OnPublish(fn func()) { tx.onPublish = fn }

// SetTrace attaches a request ID to this transaction — it rides into the
// flight recorder, the WAL flush group and the replication stream — and,
// when ct is non-nil, arranges for the commit spans (latch-wait,
// enqueue-wait, fsync, group size, replication position) to be filled in
// by the time Commit returns.
func (tx *Txn) SetTrace(id uint64, ct *obs.CommitTrace) {
	tx.id = id
	tx.ct = ct
	if ct != nil {
		ct.ID = id
	}
}

// BeginSession registers a transaction without acquiring any latch; the
// store-wide write latch is taken at the first AcquireWrite, so read-only
// and still-idle transactions do not block writers.
func (s *Store) BeginSession() (*Txn, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("dmsii: store is closed")
	}
	s.active.Add(1)
	return &Txn{s: s}, nil
}

// Begin starts a write transaction holding the store's write latch from
// the start — the shape single-threaded callers (schema persistence, the
// benchmark harness) use. It blocks while another transaction is in its
// write phase.
func (s *Store) Begin() (*Txn, error) {
	tx, err := s.BeginSession()
	if err != nil {
		return nil, err
	}
	if err := tx.AcquireWrite(context.Background()); err != nil {
		tx.Rollback()
		return nil, err
	}
	return tx, nil
}

// AcquireWrite takes the store-wide write latch for this transaction,
// blocking (under ctx) while another transaction is in its write phase.
// It is idempotent. If an earlier commit group failed, the uncommitted
// state it left behind is discarded before this transaction may write.
func (tx *Txn) AcquireWrite(ctx context.Context) error {
	if tx.done {
		return fmt.Errorf("dmsii: transaction already finished")
	}
	if tx.wrote {
		return nil
	}
	wait, err := tx.s.acquireSem(ctx)
	if err != nil {
		return err
	}
	tx.latchWait += wait
	tx.s.writeHeld.Store(true)
	tx.wrote = true
	tx.s.flightTxn.Load().Event("txn", "begin", tx.id, wait, 0, "")
	if tx.s.needsReset.Load() {
		if err := tx.s.resetUncommitted(); err != nil {
			tx.releaseWrite()
			return err
		}
	}
	return nil
}

// entityKey identifies one entity for conflict checks: its base class
// name (the granularity is the entity, shared across the subclass
// hierarchy it threads through) and its surrogate.
type entityKey struct {
	base string
	surr uint64
}

// RecordWrite notes that this transaction, the write-latch holder, is
// writing one entity of the named base class. The record lives until the
// holder releases the write latch. A transaction that does not hold the
// write latch records nothing.
func (tx *Txn) RecordWrite(base string, surr uint64) {
	if !tx.wrote {
		return
	}
	s := tx.s
	s.latchMu.Lock()
	if s.touched == nil {
		s.touched = make(map[entityKey]struct{})
	}
	s.touched[entityKey{base, surr}] = struct{}{}
	s.latchMu.Unlock()
}

// CheckEntity is the conflict check a transaction runs before queueing on
// the write latch: it fails fast with ErrConflict when the write-latch
// holder has written the entity (first writer wins). It never waits, and
// the holder's own check never conflicts. Two transactions writing
// distinct entities of the same class do not conflict.
func (tx *Txn) CheckEntity(base string, surr uint64) error {
	if tx.done {
		return fmt.Errorf("dmsii: transaction already finished")
	}
	if tx.wrote {
		return nil
	}
	s := tx.s
	s.latchMu.Lock()
	defer s.latchMu.Unlock()
	if _, ok := s.touched[entityKey{base, surr}]; !ok {
		return nil
	}
	s.conflicts.Add(1)
	s.classConflictLocked(base)
	s.flightTxn.Load().Event("txn", "conflict", tx.id, 0, int64(surr), base)
	return fmt.Errorf("%w: entity %d of %q is written by the open transaction holding the write latch (first writer wins)", ErrConflict, surr, base)
}

// EntityConflicts is Conflicts: every conflict is at entity granularity.
//
// Deprecated: use Conflicts. Kept while the benchmark module calls it.
func (s *Store) EntityConflicts() uint64 { return s.conflicts.Load() }

// classConflictLocked counts a first-writer-wins conflict against the
// contended class and, when metrics are registered, exposes the per-class
// counter as sim_latch_class_<class>_conflicts_total (the \hot view's
// conflict line). Caller holds latchMu.
func (s *Store) classConflictLocked(name string) {
	c := s.classConf[name]
	if c == nil {
		c = new(atomic.Uint64)
		s.classConf[name] = c
		if r := s.reg.Load(); r != nil {
			registerClassCounter(r, name, c)
		}
	}
	c.Add(1)
}

func registerClassCounter(r *obs.Registry, name string, c *atomic.Uint64) {
	r.CounterFunc("sim_latch_class_"+metricName(name)+"_conflicts_total",
		"First-writer-wins conflicts on entities of class "+name+".",
		func() float64 { return float64(c.Load()) })
}

// metricName maps a structure name onto the Prometheus metric-name
// alphabet.
func metricName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

func (tx *Txn) releaseWrite() {
	if !tx.wrote {
		return
	}
	tx.wrote = false
	s := tx.s
	s.latchMu.Lock()
	s.touched = nil
	s.latchMu.Unlock()
	s.writeHeld.Store(false)
	<-s.writeSem
}

// Commit durably applies the transaction. The write phase ends at the
// commit snapshot: the dirty page images are captured (shared with their
// frames, not copied; see pager.Pool.Snapshot) and their WAL batch
// enqueued while the write latch is still held (so batches hit the log in
// write-phase order), then the latch is released and the committer waits
// for its group's fsync — the next writer executes while this fsync is in
// flight, which is what lets the WAL group commits. After the batch is
// durable the commit publishes its stamp and stops counting as open; its
// snapshot images are then written back to the database file in commit
// order, and Scrub, Close and every other write-latch holder wait for that
// write-back in drainPending.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("dmsii: transaction already finished")
	}
	tx.done = true
	s := tx.s
	if !tx.wrote {
		s.active.Add(-1)
		return nil
	}
	snap := s.pool.Snapshot()
	tx.stamp = snap.Stamp()
	statsVer := s.liveStats.Load()
	if snap.Len() == 0 {
		tx.releaseWrite()
		s.active.Add(-1)
		return nil
	}
	if s.auditCapture != nil {
		s.auditCapture(snap, false)
	}
	s.pendMu.Lock()
	s.pending = append(s.pending, snap)
	s.pendMu.Unlock()
	if tx.ct != nil {
		tx.ct.Pages = snap.Len()
		tx.ct.LatchWait = tx.latchWait
	}
	p := s.log.EnqueueTraced(snap.Frames(), tx.id, tx.ct)
	tx.releaseWrite()
	if err := p.Wait(); err != nil {
		// The batch never became durable: the transaction did not
		// commit. The pool still holds its half-applied pages (and a
		// later writer may already be stacking more on top — its
		// commit will fail on the poisoned log too); discard them now
		// if the write latch is free, else before the next write phase.
		s.removePending(snap)
		s.needsReset.Store(true)
		if unlock, _ := s.lockWrites(true); unlock != nil {
			unlock()
		}
		s.active.Add(-1)
		return err
	}
	// Past this point the transaction is durable (journaled + synced), and
	// it commits whatever fails after: the pool keeps a snapshot whose
	// write-back failed and writes it before anything else (see
	// pager.Pool.WriteBack), and a crash replays it from the WAL. Such
	// failures go to the flight recorder, not the caller, who would
	// otherwise retry a statement that has committed.
	//
	// Publish the commit's version stamp: snapshot readers pinning after
	// this point see these changes. Group commit makes every batch in the
	// same fsync durable together and stamps are assigned in write-phase
	// order, so max-publishing this stamp never exposes a non-durable
	// predecessor. The current read view is retired with it, so an idle
	// one stops pinning the stamp it was built at.
	if tx.onPublish != nil {
		tx.onPublish()
	}
	s.pool.Publish(snap.Stamp())
	// Statistics versions rise in commit order, and a group's commits
	// publish in any order: the newest version wins.
	for c := s.committedStats.Load(); c < statsVer; c = s.committedStats.Load() {
		if s.committedStats.CompareAndSwap(c, statsVer) {
			break
		}
	}
	s.active.Add(-1)
	s.retireStale()
	s.flightTxn.Load().Event("txn", "commit", tx.id, 0, int64(snap.Len()), "")
	s.awaitHead(snap)
	if s.auditCapture != nil {
		s.auditCapture(snap, true)
	}
	werr := s.pool.WriteBack(snap)
	s.removePending(snap)
	if werr == nil && s.log.Size() > checkpointThreshold {
		// With another writer in its write phase the next threshold
		// crossing retries. Close may have checkpointed during the
		// write-back.
		var unlock func()
		if unlock, werr = s.lockWrites(true); unlock != nil {
			if !s.closed.Load() {
				werr = s.checkpointLocked()
			}
			unlock()
		}
	}
	if werr != nil {
		s.flightStore.Load().Event("store", "failed after commit", tx.id, 0, 0, werr.Error())
	}
	return nil
}

// Rollback discards the transaction's changes.
func (tx *Txn) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	defer tx.s.active.Add(-1)
	s := tx.s
	if !tx.wrote {
		return nil
	}
	defer tx.releaseWrite()
	// Committed predecessors must reach the database file before state is
	// reloaded from it.
	s.drainPending()
	// Structures (and the directory itself) whose roots changed during the
	// transaction hold stale root ids; drop the cache and reattach the
	// directory from the durable meta page. While a failed write-back's
	// pages still cannot be written, the pool discards nothing, and the
	// next write-latch holder tries again.
	if err := s.discardUncommitted(); err != nil {
		s.needsReset.Store(true)
		return err
	}
	s.needsReset.Store(false)
	return nil
}

// awaitHead blocks until snap is at the head of the commit pipeline, so
// snapshots reach the database file in commit order.
func (s *Store) awaitHead(snap *pager.Snapshot) {
	s.pendMu.Lock()
	for len(s.pending) > 0 && s.pending[0] != snap {
		s.pendCond.Wait()
	}
	s.pendMu.Unlock()
}

func (s *Store) removePending(snap *pager.Snapshot) {
	s.pendMu.Lock()
	for i, p := range s.pending {
		if p == snap {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.pendCond.Broadcast()
	s.pendMu.Unlock()
}

// drainPending waits until every in-flight commit has written its
// snapshot back (or failed and been removed). New snapshots only enter
// the pipeline under the write latch, so holding it guarantees progress.
func (s *Store) drainPending() {
	s.pendMu.Lock()
	for len(s.pending) > 0 {
		s.pendCond.Wait()
	}
	s.pendMu.Unlock()
}

// resetUncommitted repairs the store after a failed commit group: drains
// the pipeline and discards every dirty frame so the cache matches the
// last durable state. The caller holds the write latch; nothing else pins
// a frame (readers resolve pages through views, which never do).
func (s *Store) resetUncommitted() error {
	s.drainPending()
	if err := s.discardUncommitted(); err != nil {
		return err
	}
	s.needsReset.Store(false)
	return nil
}

// discardUncommitted drops all dirty pool state and reattaches the
// directory from the durable meta page — the shared abort path for
// Rollback and for commits whose journaling failed. The caller holds the
// write latch with the pipeline drained.
func (s *Store) discardUncommitted() error {
	if err := s.pool.DiscardDirty(); err != nil {
		return err
	}
	return s.reattachDir()
}

// reattachDir reopens the live directory from the meta page in the pool,
// drops the open-structure handles, whose cached roots may no longer
// match the pages, and reads the live statistics version. The caller
// holds the write latch.
func (s *Store) reattachDir() error {
	meta, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	dirRoot := pager.PageID(binary.BigEndian.Uint32(meta.Data[dirRootOff:]))
	s.liveStats.Store(binary.BigEndian.Uint64(meta.Data[statsVersionOff:]))
	s.pool.Release(meta)
	s.dirMu.Lock()
	s.open = make(map[string]*Structure)
	s.dir = btree.Open(s, dirRoot, s.setDirRoot)
	s.dirMu.Unlock()
	return nil
}

// Conflicts reports first-writer-wins conflicts since open.
func (s *Store) Conflicts() uint64 { return s.conflicts.Load() }

// ---------------------------------------------------------------------------
// Page allocator (btree.Alloc)
// ---------------------------------------------------------------------------

// AllocPage pops the persistent freelist or grows the file.
func (s *Store) AllocPage() (*pager.Frame, error) {
	meta, err := s.pool.Get(0)
	if err != nil {
		return nil, err
	}
	head := pager.PageID(binary.BigEndian.Uint32(meta.Data[freelistOff:]))
	if head == pager.Invalid {
		s.pool.Release(meta)
		return s.pool.Allocate()
	}
	// Pop: the free page's first 4 bytes link to the next free page.
	f, err := s.pool.Get(head)
	if err != nil {
		s.pool.Release(meta)
		return nil, err
	}
	next := binary.BigEndian.Uint32(f.Data[0:4])
	s.pool.Prepare(meta)
	binary.BigEndian.PutUint32(meta.Data[freelistOff:], next)
	s.pool.MarkDirty(meta)
	s.pool.Release(meta)
	// Re-acquire the page as a fresh allocation: AllocateAt zeroes it
	// without disturbing any buffer snapshot readers may hold.
	s.pool.Release(f)
	return s.pool.AllocateAt(head)
}

// FreePage pushes a page onto the persistent freelist.
func (s *Store) FreePage(id pager.PageID) error {
	meta, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	head := binary.BigEndian.Uint32(meta.Data[freelistOff:])
	f, err := s.pool.Get(id)
	if err != nil {
		s.pool.Release(meta)
		return err
	}
	// Push the page's committed image for snapshot readers pinned before
	// this free, then turn it into a freelist node.
	s.pool.Prepare(f)
	for i := range f.Data {
		f.Data[i] = 0
	}
	binary.BigEndian.PutUint32(f.Data[0:4], head)
	s.pool.MarkDirty(f)
	s.pool.Release(f)
	s.pool.Prepare(meta)
	binary.BigEndian.PutUint32(meta.Data[freelistOff:], uint32(id))
	s.pool.MarkDirty(meta)
	s.pool.Release(meta)
	return nil
}

// Get implements btree.Alloc.
func (s *Store) Get(id pager.PageID) (*pager.Frame, error) { return s.pool.Get(id) }

// Release implements btree.Alloc.
func (s *Store) Release(f *pager.Frame) { s.pool.Release(f) }

// Prepare implements btree.Alloc: it opens a copy-on-write cycle on the
// frame so snapshot readers keep the committed image.
func (s *Store) Prepare(f *pager.Frame) { s.pool.Prepare(f) }

// MarkDirty implements btree.Alloc.
func (s *Store) MarkDirty(f *pager.Frame) { s.pool.MarkDirty(f) }
