// Package wal implements a commit journal (write-ahead log) of page images
// with REDO recovery.
//
// The protocol pairs with the no-steal buffer pool in internal/pager:
// uncommitted pages never reach the database file, so the log only needs
// REDO information. At commit, the images of all dirty pages are written
// at the log's tail followed by a commit record, and the log is synced;
// the pool may then lazily write the pages to the database file. Recovery
// replays every complete committed batch in order and starts a new log
// cycle. A checkpoint (flush all pages + sync + Reset) bounds log growth.
//
// Log cycles: the file opens with a header naming the current cycle, and
// every record's CRC is seeded with that cycle. Reset starts the next
// cycle in place — it rewrites the header and moves the tail back to the
// first record — but keeps the file's blocks, so after the first cycle a
// commit overwrites blocks the file already owns and its fsync flushes
// data only, not the metadata of a growing file. Records of earlier
// cycles lie past the tail; they never validate under the current seed,
// so a torn group can never be completed by a stale record that happens
// to sit where its next record would. Every flush ends with an end record
// that the next flush overwrites: a scan that stops at it found a clean
// tail, and a scan that stops anywhere else found a torn group.
//
// Commits are grouped (DeWitt et al., "Implementation Techniques for Main
// Memory Database Systems"): committers Enqueue their encoded batches and
// Wait; the first waiter through the flush lock becomes the leader and
// makes every queued batch durable with a single WriteAt + Sync. A lone
// committer pays exactly the old cost (one write, one sync); concurrent
// committers share a sync, which Stats reports as FsyncsSaved.
//
// Failure semantics: a failed append or fsync poisons the log — every
// subsequent Commit fails with an error wrapping ErrPoisoned instead of
// silently journaling past a hole of unknown durability (the "fsyncgate"
// lesson: after one failed fsync the page cache may have dropped the dirty
// data, so retrying the sync can falsely succeed). Reset clears the
// poison, because it discards the bytes of unknown state: on a poisoned
// log it truncates the file to zero before the next cycle starts, so no
// block of unknown state is reused. The store layer only resets after
// making the database file durable by other means.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sim/internal/obs"
	"sim/internal/pager"
)

// maxKeptBuf caps the encoding buffer a flush keeps for the next one, at
// 32 page images: ordinary commit groups reuse it, while a group as large
// as a bulk load's is encoded once and dropped rather than held (and
// doubled by the GC's heap target) for the life of the log.
const maxKeptBuf = 128 << 10

// Record kinds.
const (
	recPage   = 1
	recCommit = 2
	recEnd    = 3 // the tail of the log; the next flush overwrites it
)

// header: kind(1) pageID(4) payloadLen(4) crc(4) = 13 bytes, then payload.
// The CRC covers the first 9 header bytes and the payload, seeded with the
// log cycle (cycleSeed).
const headerSize = 13

// The log header at offset 0: magic(8) cycle(8) crc32(4). The current
// cycle's records follow it.
const logHeaderSize = 20

var logMagic = [8]byte{'S', 'I', 'M', 'W', 'A', 'L', '0', '1'}

// ErrPoisoned is wrapped by every Commit rejected because an earlier
// append or fsync failed, leaving the log tail in an unknown durable
// state. Reopening the log (which re-runs recovery) or resetting it
// clears the condition.
var ErrPoisoned = errors.New("wal: log poisoned by an earlier append/sync failure")

// Stats reports WAL activity since the log was opened.
type Stats struct {
	Commits   uint64 // committed batches journaled
	Pages     uint64 // page images appended
	Bytes     uint64 // bytes written by commit groups
	SizeBytes int64  // bytes in the current log cycle
	Salvages  uint64 // torn groups discarded during recovery
	Syncs     uint64 // fsyncs performed (one per commit group)
	GroupMax  uint64 // largest commit group synced so far
}

// FsyncsSaved reports how many fsyncs group commit avoided: the commits
// that rode a group leader's sync instead of paying their own.
func (s Stats) FsyncsSaved() uint64 {
	if s.Commits < s.Syncs {
		return 0
	}
	return s.Commits - s.Syncs
}

// RecoverInfo describes one recovery pass.
type RecoverInfo struct {
	Replayed  int   // page images written back to the database file
	Commits   int   // committed groups replayed (a group is ≥1 batch)
	Salvaged  bool  // a torn/corrupt group of the current cycle was discarded
	ValidTo   int64 // end of the last complete committed batch, in cycle bytes
	Discarded int64 // bytes past ValidTo up to the end of the rejected record
}

// Log is a commit journal with group commit: concurrent
// committers enqueue their page batches and the first of them to reach
// the flush lock becomes the leader, merging the whole queue into one
// WAL transaction (deduplicated page images + a single commit record)
// made durable with a single WriteAt + Sync. The counters are atomics so
// Stats and metric collection are safe while commits run.
type Log struct {
	f    pager.ByteFile
	size atomic.Int64 // bytes in the current cycle, the end record excluded

	cycle uint64 // current log cycle; guarded by flushMu
	seed  uint32 // the cycle's CRC seed; guarded by flushMu

	mu     sync.Mutex // guards poison state
	poison error      // non-nil after a failed append/sync

	qmu   sync.Mutex // guards the queue
	queue []*pendingCommit

	flushMu  sync.Mutex                     // held by the group leader during write+sync
	seq      uint64                         // group sequence number, kept across cycles; guarded by flushMu
	buf      []byte                         // the group being encoded, reused across flushes; guarded by flushMu
	onCommit func(CommitGroup) uint64       // replication hook; guarded by flushMu
	latch    *obs.Latch                     // leader hand-off contention (always on)
	flight   atomic.Pointer[obs.FlightRing] // flush events; set by RegisterMetrics

	commits  atomic.Uint64
	pages    atomic.Uint64
	bytes    atomic.Uint64
	salvages atomic.Uint64
	syncs    atomic.Uint64
	groupMax atomic.Uint64
}

// CommitGroup is one durable flush group as seen by the commit hook: the
// deduplicated page images in first-touched order, and the request IDs of
// the commits merged into the group (untraced commits contribute no ID).
type CommitGroup struct {
	Images []pager.PageImage
	IDs    []uint64
}

// pendingCommit is one enqueued batch awaiting its group's fsync. The
// frames are encoded by the group leader at flush time, which lets the
// leader merge the whole group into one WAL transaction (see flush). done
// and err are written by the leader under flushMu and read by the owner
// under flushMu, so no further synchronization is needed; the same
// ordering covers the trace fields the leader fills in.
type pendingCommit struct {
	frames []*pager.Frame
	id     uint64           // request ID, 0 = untraced
	ct     *obs.CommitTrace // commit spans to fill, nil when not requested
	enq    time.Time        // Enqueue time, for the enqueue-wait span
	done   bool
	err    error
}

// Pending is a committer's handle on its enqueued batch; Wait blocks until
// the batch is durable (or its group's flush failed).
type Pending struct {
	l  *Log
	pc *pendingCommit
}

// Open opens (creating if necessary) the log at path.
func Open(path string) (*Log, error) {
	f, err := pager.OpenOSByteFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l, err := OpenBacking(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenBacking opens a log over arbitrary byte storage: the path every
// durable database takes via Open, and the hook the fault-injection
// harness uses to script append/sync failures and crashes. It finds the
// tail of the current cycle: the end of its last complete committed
// group. An empty file, or one whose header a crash tore, is truncated to
// zero and starts cycle 1, since with no cycle to check against, any
// record in it could pass for current. Any other file without a valid
// header is not a log of this format and fails to open.
func OpenBacking(f pager.ByteFile) (*Log, error) {
	l := &Log{f: f, latch: obs.NewLatch("wal_flush")}
	var hdr [logHeaderSize]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	cycle, ok := parseLogHeader(hdr[:n])
	if !ok {
		if !tornHeader(hdr[:n]) {
			return nil, errors.New("wal: no log header: not a log of this format " +
				"(a log of an older format must be emptied by a clean close of the build that wrote it)")
		}
		if n > 0 {
			if err := f.Truncate(0); err != nil {
				return nil, fmt.Errorf("wal: truncate: %w", err)
			}
		}
		if err := l.startCycle(); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.setCycle(cycle)
	// A malformed record past the tail fails Recover, which reports it.
	info, _ := l.scan(nil)
	l.size.Store(info.ValidTo)
	return l, nil
}

// parseLogHeader returns the cycle a log header names, or false when hdr
// is short or fails its magic or CRC.
func parseLogHeader(hdr []byte) (uint64, bool) {
	if len(hdr) < logHeaderSize || [8]byte(hdr[:8]) != logMagic {
		return 0, false
	}
	if crc32.ChecksumIEEE(hdr[:16]) != binary.BigEndian.Uint32(hdr[16:20]) {
		return 0, false
	}
	return binary.BigEndian.Uint64(hdr[8:16]), true
}

// tornHeader reports whether hdr, which failed parseLogHeader, can be
// what a crash left of a header write. Every header carries the same
// magic, so a torn one keeps a prefix of it, or zeros where the file grew
// but the write never reached the disk.
func tornHeader(hdr []byte) bool {
	m := hdr[:min(len(hdr), len(logMagic))]
	return bytes.HasPrefix(logMagic[:], m) || bytes.Equal(m, make([]byte, len(m)))
}

// setCycle makes cycle current.
func (l *Log) setCycle(cycle uint64) {
	l.cycle = cycle
	l.seed = cycleSeed(cycle)
}

// cycleSeed is the CRC seed of cycle's records.
func cycleSeed(cycle uint64) uint32 {
	return crc32.ChecksumIEEE(binary.BigEndian.AppendUint64(nil, cycle))
}

// appendLogHeader encodes the log header naming cycle onto buf.
func appendLogHeader(buf []byte, cycle uint64) []byte {
	buf = append(buf, logMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, cycle)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(buf)-16:]))
}

// startCycle begins the next cycle at the head of the file: one write of
// the header and of an end record where the first group will go, then a
// sync. A failure poisons the log, since the header on disk may no longer
// name the cycle later groups would be sealed with.
func (l *Log) startCycle() error {
	l.setCycle(l.cycle + 1)
	buf := appendLogHeader(make([]byte, 0, logHeaderSize+headerSize), l.cycle)
	buf = appendRecord(buf, l.seed, recEnd, 0, nil)
	if _, err := l.f.WriteAt(buf, 0); err != nil {
		l.setPoison(err)
		return fmt.Errorf("wal: write header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.setPoison(err)
		return fmt.Errorf("wal: sync header: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// Size returns the bytes of the current log cycle: what commits have
// journaled since the last Reset. The file itself may be longer.
func (l *Log) Size() int64 { return l.size.Load() }

// Poisoned returns the poisoning cause, or nil while the log is healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poison
}

// setPoison records the first failure; later failures keep the original
// cause.
func (l *Log) setPoison(err error) {
	l.mu.Lock()
	if l.poison == nil {
		l.poison = err
	}
	l.mu.Unlock()
}

// Stats returns the log's counters; safe to call while commits run.
func (l *Log) Stats() Stats {
	return Stats{
		Commits:   l.commits.Load(),
		Pages:     l.pages.Load(),
		Bytes:     l.bytes.Load(),
		SizeBytes: l.size.Load(),
		Salvages:  l.salvages.Load(),
		Syncs:     l.syncs.Load(),
		GroupMax:  l.groupMax.Load(),
	}
}

// RegisterMetrics publishes the log's counters on an obs registry.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_wal_commits_total", "Committed batches journaled to the WAL.",
		func() float64 { return float64(l.commits.Load()) })
	r.CounterFunc("sim_wal_pages_total", "Page images appended to the WAL.",
		func() float64 { return float64(l.pages.Load()) })
	r.CounterFunc("sim_wal_bytes_total", "Bytes written to the WAL by commit groups.",
		func() float64 { return float64(l.bytes.Load()) })
	r.GaugeFunc("sim_wal_size_bytes", "Bytes in the current WAL cycle (reset at checkpoints; the file keeps its blocks).",
		func() float64 { return float64(l.size.Load()) })
	r.CounterFunc("sim_wal_salvage_truncations_total", "Torn or corrupt groups of the current WAL cycle discarded during recovery.",
		func() float64 { return float64(l.salvages.Load()) })
	r.CounterFunc("sim_wal_syncs_total", "Fsyncs performed; one per commit group, not per commit.",
		func() float64 { return float64(l.syncs.Load()) })
	r.CounterFunc("sim_wal_fsyncs_saved_total", "Commits that rode a group leader's fsync instead of paying their own.",
		func() float64 { return float64(l.Stats().FsyncsSaved()) })
	r.GaugeFunc("sim_wal_group_max_commits", "Largest commit group fsynced so far.",
		func() float64 { return float64(l.groupMax.Load()) })
	r.GaugeFunc("sim_wal_poisoned", "1 after a failed append/fsync has poisoned the log, else 0.",
		func() float64 {
			if l.Poisoned() != nil {
				return 1
			}
			return 0
		})
	l.latch.Register(r, "WAL group-commit leader hand-off.")
	ring := r.Flight().Component("wal")
	l.flight.Store(ring)
	// Recovery runs before metrics registration, so salvages that happened
	// at open time are surfaced as a catch-up event.
	if n := l.salvages.Load(); n > 0 {
		ring.Event("wal", "salvage", 0, 0, int64(n), "torn tail discarded during recovery")
	}
}

// appendRecord encodes one record onto buf and returns the extended
// slice: header (kind, page id, payload length, CRC32 over both and the
// payload, seeded with the cycle's seed) followed by the payload.
func appendRecord(buf []byte, seed uint32, kind byte, pageID pager.PageID, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(pageID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	crc := crc32.Update(seed, crc32.IEEETable, buf[len(buf)-9:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return append(buf, payload...)
}

// Commit durably journals the given page frames as one atomic batch:
// Enqueue followed by Wait. A single committer behaves exactly as before
// group commit — one WriteAt and one Sync per batch. After any append or
// sync failure the log is poisoned: the failed batch is not acknowledged
// (it may or may not survive a crash, depending on how many of its bytes
// reached the disk), and every later Commit fails with ErrPoisoned until
// the log is reset or reopened.
func (l *Log) Commit(frames []*pager.Frame) error {
	return l.Enqueue(frames).Wait()
}

// Enqueue appends the batch to the commit queue. It never blocks on I/O;
// the batch becomes durable when some committer's Wait flushes the group
// containing it. Batches are flushed in enqueue order, so callers that
// must preserve commit order (the store's commit pipeline) serialize
// their Enqueue calls. The frame images must stay unchanged until Wait
// returns (the store passes the buffers its commit snapshot captured,
// which no writer touches again; see pager.Pool.Snapshot).
func (l *Log) Enqueue(frames []*pager.Frame) *Pending {
	return l.EnqueueTraced(frames, 0, nil)
}

// EnqueueTraced is Enqueue with trace context: id names the request the
// batch commits for (it rides into the replication group and the flight
// recorder), and ct, when non-nil, receives the group-commit spans —
// enqueue-wait, fsync, group size, replication position — once the batch
// is durable. ct must not be read until Wait returns.
func (l *Log) EnqueueTraced(frames []*pager.Frame, id uint64, ct *obs.CommitTrace) *Pending {
	pc := &pendingCommit{frames: frames, id: id, ct: ct, enq: time.Now()}
	l.qmu.Lock()
	l.queue = append(l.queue, pc)
	l.qmu.Unlock()
	return &Pending{l: l, pc: pc}
}

// Wait blocks until the enqueued batch is durable. The first waiter to
// take the flush lock becomes the leader: it drains the whole queue and
// makes it durable with one WriteAt and one Sync, then reports the result
// to every member. Waiters arriving while a flush is in flight form the
// next group — that overlap is where fsyncs are saved.
func (p *Pending) Wait() error {
	l := p.l
	if l.flushMu.TryLock() {
		l.latch.Acquired()
	} else {
		start := time.Now()
		l.flushMu.Lock()
		l.latch.Waited(time.Since(start))
	}
	defer l.flushMu.Unlock()
	if !p.pc.done {
		l.qmu.Lock()
		batch := l.queue
		l.queue = nil
		l.qmu.Unlock()
		l.flush(batch)
	}
	return p.pc.err
}

// flush makes one group of batches durable; called with flushMu held.
// The group is written as a single WAL transaction: one image per
// distinct page — the group's last image of it wins — followed by one
// commit record. Deduplication keeps the bytes fsynced proportional to
// the pages the group touched rather than to the number of committers
// (concurrent committers re-dirty the same hot pages), which matters
// because fsync cost grows with the bytes written. It is sound because
// acknowledgment is all-or-nothing: every member's Wait returns only
// after the shared Sync, so a crash that tears the group loses only
// unacknowledged commits, and replay applies the group atomically at its
// commit record. A poisoned log, a failed append or a failed sync fails
// every member of the group: none of them were acknowledged, so none are
// lost.
func (l *Log) flush(batch []*pendingCommit) {
	pickup := time.Now()
	fail := func(err error) {
		for _, pc := range batch {
			pc.done = true
			pc.err = err
		}
	}
	if err := l.Poisoned(); err != nil {
		fail(fmt.Errorf("%w (cause: %v)", ErrPoisoned, err))
		return
	}
	// Last image of each page wins; emit in first-touched order.
	var order []pager.PageID
	last := make(map[pager.PageID][]byte)
	npages := 0
	for _, pc := range batch {
		npages += len(pc.frames)
		for _, fr := range pc.frames {
			if _, seen := last[fr.ID]; !seen {
				order = append(order, fr.ID)
			}
			last[fr.ID] = fr.Data
		}
	}
	buf := slices.Grow(l.buf[:0], len(order)*(headerSize+pager.PageSize)+2*headerSize+8)
	for _, id := range order {
		buf = appendRecord(buf, l.seed, recPage, id, last[id])
	}
	l.seq++
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], l.seq)
	buf = appendRecord(buf, l.seed, recCommit, 0, seqb[:])
	buf = appendRecord(buf, l.seed, recEnd, 0, nil)
	if cap(buf) <= maxKeptBuf {
		l.buf = buf
	}
	ioStart := time.Now()
	if _, err := l.f.WriteAt(buf, logHeaderSize+l.size.Load()); err != nil {
		l.setPoison(err)
		fail(fmt.Errorf("wal: append: %w", err))
		return
	}
	if err := l.f.Sync(); err != nil {
		l.setPoison(err)
		fail(fmt.Errorf("wal: sync: %w", err))
		return
	}
	syncDur := time.Since(ioStart)
	l.size.Add(int64(len(buf) - headerSize)) // the next group overwrites the end record
	l.commits.Add(uint64(len(batch)))
	l.bytes.Add(uint64(len(buf)))
	l.pages.Add(uint64(npages))
	l.syncs.Add(1)
	if n := uint64(len(batch)); n > l.groupMax.Load() {
		l.groupMax.Store(n)
	}
	for _, pc := range batch {
		pc.done = true
	}
	var ids []uint64
	for _, pc := range batch {
		if pc.id != 0 {
			ids = append(ids, pc.id)
		}
	}
	var pos uint64
	if l.onCommit != nil {
		images := make([]pager.PageImage, len(order))
		for i, id := range order {
			images[i] = pager.PageImage{ID: id, Data: last[id]}
		}
		pos = l.onCommit(CommitGroup{Images: images, IDs: ids})
	}
	for _, pc := range batch {
		if pc.ct != nil {
			pc.ct.EnqueueWait = pickup.Sub(pc.enq)
			pc.ct.Fsync = syncDur
			pc.ct.GroupN = len(batch)
			pc.ct.Pos = pos
		}
	}
	var fid uint64
	if len(ids) > 0 {
		fid = ids[0]
	}
	l.flight.Load().Record(obs.FlightEvent{
		Comp: "wal", Kind: "flush", ID: fid, Pos: pos, Dur: syncDur,
		N: int64(len(batch)), Note: fmt.Sprintf("pages=%d", len(order)),
	})
}

// SetOnCommit installs a hook invoked after every commit group becomes
// durable, with the group's deduplicated page images in first-touched
// order plus the request IDs that rode the group. Hooks run under the
// flush lock, so they observe groups in commit order; they must be fast
// (they extend the commit path) and must copy the image bytes before
// returning — the Data slices alias the committers' snapshot buffers,
// which are frame buffers the pool may reuse once written back.
// The returned value is the replication position the group published at
// (0 when unreplicated), copied into each member's CommitTrace. The
// replication publisher is the only intended client.
func (l *Log) SetOnCommit(fn func(CommitGroup) uint64) {
	l.flushMu.Lock()
	l.onCommit = fn
	l.flushMu.Unlock()
}

// Reset starts a new log cycle in place; call only after a checkpoint has
// made the database file current and no commits are in flight (the store
// drains its commit pipeline first). The next group overwrites the head
// of the file, and the file keeps its length unless it is longer than
// keep bytes — left so by one very large group — when it is cut back to
// keep. A poisoned log is truncated to zero instead: it discards the
// bytes of unknown durability, which is what makes it safe to clear the
// poison here.
func (l *Log) Reset(keep int64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.resetLocked(keep)
}

// resetLocked is Reset; the caller holds flushMu.
func (l *Log) resetLocked(keep int64) error {
	if l.Poisoned() != nil {
		// An empty file replays nothing, wherever a crash lands after this.
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	if err := l.startCycle(); err != nil {
		return err
	}
	l.size.Store(0)
	l.mu.Lock()
	l.poison = nil
	l.mu.Unlock()
	// Cut an overlong file only once the new header is durable: what the
	// cut removes is then of an earlier cycle and can never validate. Cut
	// before it, and a crash would leave the old header over a prefix of
	// the old cycle, whose replay reverts every page a group past the cut
	// rewrote.
	size, err := l.f.Size()
	if err != nil {
		return fmt.Errorf("wal: size: %w", err)
	}
	if size > keep {
		if err := l.f.Truncate(keep); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Recover replays every complete committed batch of the current cycle
// into file, syncs it and starts a new cycle. A torn group — an
// incomplete batch, a half-written record, or a corrupt one — is
// salvaged: replay stops at the last complete committed batch (the
// reported ValidTo offset), the group past it is discarded, and the
// salvage is counted. This implements atomic commit across crashes at
// arbitrary write boundaries. A log with nothing to replay and a clean
// tail is left as it is.
func (l *Log) Recover(file *pager.ChecksumFile) (RecoverInfo, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	info, err := l.scan(func(id pager.PageID, data []byte) error {
		if err := file.WritePage(id, data); err != nil {
			return fmt.Errorf("wal: replay page %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return info, err
	}
	if info.Salvaged {
		l.salvages.Add(1)
	}
	if info.ValidTo == 0 && !info.Salvaged {
		return info, nil
	}
	if info.Replayed > 0 {
		if err := file.Sync(); err != nil {
			return info, err
		}
	}
	// The replayed groups are in the file now; the next cycle need not
	// hold them, and recovery never cuts a file the store sized.
	return info, l.resetLocked(math.MaxInt64)
}

// scan reads the current cycle's records from the first one on, handing
// the page images of each complete committed group to replay (when not
// nil) in log order. It stops at the end record, at the first record that fails its
// CRC — a torn write, or a record of an earlier cycle — or at the end of
// the file. The tail is salvaged unless the scan stopped at an end record
// right after the last complete group, or at the end of the file there.
func (l *Log) scan(replay func(pager.PageID, []byte) error) (RecoverInfo, error) {
	var info RecoverInfo
	flen, err := l.f.Size()
	if err != nil {
		return info, fmt.Errorf("wal: size: %w", err)
	}
	size := max(flen-logHeaderSize, 0)
	r := io.NewSectionReader(l.f, logHeaderSize, size)

	type img struct {
		id   pager.PageID
		data []byte
	}
	var pending []img
	var (
		off   int64 // start of the record being read
		end   int64 // end of the bytes the scan rejected
		clean bool  // stopped at an end record with no group open
	)
	hdr := make([]byte, headerSize)
scan:
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			end = size // end of file or a torn header
			break
		}
		kind := hdr[0]
		pageID := pager.PageID(binary.BigEndian.Uint32(hdr[1:5]))
		plen := binary.BigEndian.Uint32(hdr[5:9])
		want := binary.BigEndian.Uint32(hdr[9:13])
		next := off + headerSize + int64(plen)
		end = min(next, size)
		if plen > pager.PageSize {
			break // no record carries more than a page: torn or stale
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		crc := crc32.Update(l.seed, crc32.IEEETable, hdr[0:9])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			break
		}
		off = next
		switch kind {
		case recPage:
			if len(payload) != pager.PageSize {
				return info, fmt.Errorf("wal: page record with %d bytes", len(payload))
			}
			pending = append(pending, img{pageID, payload})
		case recCommit:
			if len(payload) != 8 {
				return info, fmt.Errorf("wal: commit record with %d-byte sequence", len(payload))
			}
			for _, im := range pending {
				if replay != nil {
					if err := replay(im.id, im.data); err != nil {
						return info, err
					}
				}
				info.Replayed++
			}
			info.Commits++
			pending = pending[:0]
			info.ValidTo = off
			l.seq = binary.BigEndian.Uint64(payload)
		case recEnd:
			if len(payload) != 0 {
				return info, fmt.Errorf("wal: end record with %d bytes", len(payload))
			}
			clean = len(pending) == 0
			break scan
		default:
			return info, fmt.Errorf("wal: unknown record kind %d", kind)
		}
	}
	if !clean && end > info.ValidTo {
		info.Salvaged = true
		info.Discarded = end - info.ValidTo
	}
	return info, nil
}
