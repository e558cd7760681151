package pager

import (
	"cmp"
	"container/list"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sim/internal/obs"
)

// Stats counts buffer pool activity; the query optimizer's cost model and
// the benchmark harness read these to attribute I/O.
type Stats struct {
	Hits       uint64 // page found in pool
	Misses     uint64 // page read from the file
	PageWrites uint64 // pages written back to the file

	// Every frame a miss or page allocation loads gets a buffer: the
	// evicted frame's (BuffersReused), or a new one (BuffersAllocated)
	// while the pool is still filling or a snapshot reader holds the
	// victim's.
	BuffersReused    uint64
	BuffersAllocated uint64
}

// Frame is a pinned page in the pool. Callers must Release every frame
// they Get, Prepare frames before mutating them in place, and MarkDirty
// frames they mutated. The pins/dirty/gen/unc/shared/listed/elem fields
// are guarded by the owning shard's mutex.
//
// A Frame is also the handle of a snapshot read (ViewPage fills one,
// EndView ends it); such a handle is never pinned and only its ID and
// Data are meaningful.
type Frame struct {
	ID     PageID
	Data   []byte // PageSize bytes
	pins   int
	dirty  bool
	unc    bool          // holds uncommitted bytes: Data was re-buffered by Prepare/Allocate and not yet captured
	shared bool          // Data came back off the version chain (rollback), where uncounted readers may hold it
	gen    uint64        // bumped on every MarkDirty/Allocate; see Snapshot
	capGen uint64        // gen when last captured by a Snapshot
	listed bool          // on its shard's dirty list
	elem   *list.Element // position in the shard LRU list when unpinned

	// readers counts snapshot reads between ViewPage and EndView that were
	// answered with this frame's Data (whichever buffer it held then).
	// Eviction reuses the frame's buffer only at zero. Incremented under
	// the shard lock, decremented without it.
	readers atomic.Int32
	src     *Frame // on a ViewPage handle: the frame whose readers count it holds, nil for a version-chain buffer
}

// pageVersion is one committed pre-image on a page's version chain: the
// page bytes as of commit stamp. Chains are kept in ascending stamp order
// and entries are immutable once pushed — ViewPage hands the data slice to
// readers zero-copy, relying on the swap-don't-overwrite discipline of
// Prepare (a frame buffer pushed onto the chain is never written again,
// and never reused by eviction: chain readers are not counted).
type pageVersion struct {
	stamp uint64
	data  []byte
}

// poolShards is the number of independently locked shards. Pages hash to
// shards by id, so concurrent readers touching different pages rarely
// contend on a lock.
const poolShards = 8

// shard is one independently locked slice of the pool with its own LRU.
// versions and stamps outlive the frames: a page's version chain and its
// latest commit stamp stay valid while the frame itself is evicted.
//
// dirty lists every frame that is dirty or holds uncommitted bytes (a
// frame joins when a write cycle opens on it: Allocate, AllocateAt,
// Prepare, MarkDirty), plus entries a walk has yet to drop — frames since
// written back and closed, or no longer resident. Commit, rollback and
// checkpoint walk this list instead of frames, so their cost follows the
// pages written since the last walk, not the pool's size.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*Frame
	dirty    []*Frame
	lru      *list.List               // unpinned frames, least recently used at front
	versions map[PageID][]pageVersion // committed pre-images, ascending stamp
	stamps   map[PageID]uint64        // latest commit stamp that captured the page (absent = 0, "as old as the file")
}

// Pool is a pinning buffer pool over a checksummed page file, sharded by
// page number into independently locked LRU shards. It is safe for a
// single writer or multiple concurrent readers (the database layer
// serializes writers); Stats/NumPages are safe to call at any time.
type Pool struct {
	file   *ChecksumFile
	shards [poolShards]shard
	next   atomic.Uint32 // next page id to allocate when the freelist is empty
	latch  *obs.Latch    // contention profile over all shard locks

	hits       atomic.Uint64
	misses     atomic.Uint64
	pageWrites atomic.Uint64
	bufReused  atomic.Uint64
	bufAlloc   atomic.Uint64

	// MVCC state. stampSeq is the monotonic commit-stamp counter, bumped
	// by Snapshot under the store's write latch; published is the newest
	// stamp whose commit is durable (what new readers pin); pins counts
	// the live read views per stamp; minPinned caches the GC floor —
	// min(published, oldest pinned stamp) — so Prepare can prune without
	// taking pinMu.
	stampSeq  atomic.Uint64
	published atomic.Uint64
	pinMu     sync.Mutex
	pins      map[uint64]int
	minPinned atomic.Uint64

	liveVersions atomic.Int64
	versionErrs  atomic.Uint64

	// unwritten holds the snapshots whose WriteBack failed, oldest first,
	// each cut to the pages it has not written. Their frames stay dirty
	// and are the only copy of those pages outside the WAL, so WriteBack,
	// FlushAll and DiscardDirty write them first.
	unwrittenMu sync.Mutex
	unwritten   []*Snapshot
}

// NewPool returns a pool of the given capacity (in pages) over file.
func NewPool(file *ChecksumFile, capacity int) (*Pool, error) {
	if capacity < 4 {
		capacity = 4
	}
	n, err := file.NumPages()
	if err != nil {
		return nil, err
	}
	p := &Pool{file: file, latch: obs.NewLatch("pool_shard")}
	per := (capacity + poolShards - 1) / poolShards
	if per < 2 {
		per = 2
	}
	for i := range p.shards {
		p.shards[i].capacity = per
		p.shards[i].frames = make(map[PageID]*Frame)
		p.shards[i].lru = list.New()
		p.shards[i].versions = make(map[PageID][]pageVersion)
		p.shards[i].stamps = make(map[PageID]uint64)
	}
	p.next.Store(uint32(n))
	p.pins = make(map[uint64]int)
	return p, nil
}

func (p *Pool) shardOf(id PageID) *shard { return &p.shards[uint32(id)%poolShards] }

// listLocked puts f on the shard's dirty list unless it is there already.
func (sh *shard) listLocked(f *Frame) {
	if !f.listed {
		f.listed = true
		sh.dirty = append(sh.dirty, f)
	}
}

// resident reports whether f is still the shard's frame for its page; a
// listed frame that was evicted, discarded or cut off is a stale entry.
func (sh *shard) resident(f *Frame) bool { return sh.frames[f.ID] == f }

// compactLocked ends a walk of the dirty list: it drops the entries no
// longer resident and the frames that are clean with no write cycle open,
// and keeps the rest in order.
func (sh *shard) compactLocked() {
	n := 0
	for _, f := range sh.dirty {
		if sh.resident(f) && (f.dirty || f.unc) {
			sh.dirty[n] = f
			n++
		} else {
			f.listed = false
		}
	}
	clear(sh.dirty[n:])
	sh.dirty = sh.dirty[:n]
}

// lock acquires a shard mutex through the contention profile: an
// uncontended TryLock adds one atomic to the hot path; a contended
// acquisition is timed into the pool_shard wait histogram.
func (p *Pool) lock(sh *shard) {
	if sh.mu.TryLock() {
		p.latch.Acquired()
		return
	}
	start := time.Now()
	sh.mu.Lock()
	p.latch.Waited(time.Since(start))
}

// Stats returns a snapshot of the pool's counters. It never blocks on the
// shard locks, so it is safe to call while queries run.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:             p.hits.Load(),
		Misses:           p.misses.Load(),
		PageWrites:       p.pageWrites.Load(),
		BuffersReused:    p.bufReused.Load(),
		BuffersAllocated: p.bufAlloc.Load(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.pageWrites.Store(0)
	p.bufReused.Store(0)
	p.bufAlloc.Store(0)
}

// RegisterMetrics publishes the pool's counters on an obs registry. The
// metrics read the same atomics Stats snapshots, so registration adds no
// hot-path cost.
func (p *Pool) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_pager_hits_total", "Buffer pool page hits.",
		func() float64 { return float64(p.hits.Load()) })
	r.CounterFunc("sim_pager_misses_total", "Buffer pool misses (pages read from the file).",
		func() float64 { return float64(p.misses.Load()) })
	r.CounterFunc("sim_pager_page_writes_total", "Pages written back to the database file.",
		func() float64 { return float64(p.pageWrites.Load()) })
	r.CounterFunc("sim_pager_buffers_reused_total", "Frames loaded (misses and page allocations) into the buffer of the frame they evicted.",
		func() float64 { return float64(p.bufReused.Load()) })
	r.CounterFunc("sim_pager_buffers_allocated_total", "Frames loaded into a new buffer: the pool was still filling, or a snapshot reader held the victim's.",
		func() float64 { return float64(p.bufAlloc.Load()) })
	r.GaugeFunc("sim_pager_pages", "Allocated pages, including not-yet-flushed allocations.",
		func() float64 { return float64(p.next.Load()) })
	r.GaugeFunc("sim_mvcc_published_stamp", "Newest commit stamp visible to new read snapshots.",
		func() float64 { return float64(p.published.Load()) })
	r.GaugeFunc("sim_mvcc_oldest_pinned_stamp", "Oldest stamp a live snapshot is pinned at (the version-GC floor).",
		func() float64 { return float64(p.minPinned.Load()) })
	r.GaugeFunc("sim_mvcc_pinned_views", "Pinned read views: one per stamp that is current or still has readers.",
		func() float64 { return float64(p.PinnedViews()) })
	r.GaugeFunc("sim_mvcc_live_versions", "Retained copy-on-write page pre-images awaiting GC.",
		func() float64 { return float64(p.liveVersions.Load()) })
	r.CounterFunc("sim_mvcc_version_errors_total", "Snapshot page resolutions that found no visible version (GC bug guard).",
		func() float64 { return float64(p.versionErrs.Load()) })
	p.latch.Register(r, "Buffer pool shard locks.")
}

// NumPages returns the page count including not-yet-flushed allocations.
func (p *Pool) NumPages() uint32 { return p.next.Load() }

// Get pins the page and returns its frame, reading it from the file when
// absent from the pool.
func (p *Pool) Get(id PageID) (*Frame, error) {
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	return p.getLocked(sh, id, true)
}

// Allocate pins a zeroed new page at the end of the file. Free-page reuse
// is managed by the layer above (the dmsii allocator), which calls
// AllocateAt for recycled ids.
func (p *Pool) Allocate() (*Frame, error) {
	id := PageID(p.next.Add(1) - 1)
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	f, err := p.getLocked(sh, id, false)
	if err != nil {
		return nil, err
	}
	f.dirty = true
	f.unc = true
	f.gen++
	sh.listLocked(f)
	return f, nil
}

// AllocateAt pins page id (a recycled free page, or one a follower
// installs past the end of the file) with zeroed contents, advancing the
// page count past id. No pre-image is pushed: such a page is unreachable
// from every committed structure root, so no pinned snapshot can traverse
// to it — readers that predate a recycled page's FreePage commit are
// served by the pre-image that FreePage's own Prepare pushed.
func (p *Pool) AllocateAt(id PageID) (*Frame, error) {
	for n := p.next.Load(); uint32(id) >= n; n = p.next.Load() {
		if p.next.CompareAndSwap(n, uint32(id)+1) {
			break
		}
	}
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	f, err := p.getLocked(sh, id, false)
	if err != nil {
		return nil, err
	}
	if !f.unc {
		// Re-buffer instead of zeroing in place: the old buffer may have
		// been handed out by ViewPage and must stay immutable.
		f.Data = make([]byte, PageSize)
		f.unc = true
		f.shared = false
	} else {
		for i := range f.Data {
			f.Data[i] = 0
		}
	}
	f.dirty = true
	f.gen++
	sh.listLocked(f)
	return f, nil
}

// Prepare declares that the caller (which holds the store's write latch)
// is about to mutate the frame's bytes in place. The first Prepare of a
// frame per commit cycle pushes the current committed image onto the
// page's version chain — tagged with the stamp of the commit that produced
// it — and swaps in a private copy for the writer, so every buffer a
// reader or a pending commit snapshot may hold stays immutable
// (copy-on-write by buffer swap). Later Prepares in the same cycle are
// no-ops until Snapshot captures the frame.
func (p *Pool) Prepare(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	if f.unc {
		return
	}
	f.unc = true
	sh.listLocked(f)
	old := f.Data
	nd := make([]byte, PageSize)
	copy(nd, old)
	f.Data = nd
	f.shared = false
	sh.versions[f.ID] = append(sh.versions[f.ID], pageVersion{stamp: sh.stamps[f.ID], data: old})
	p.liveVersions.Add(1)
	p.pruneLocked(sh, f.ID)
}

// pruneLocked drops chain entries no pinned snapshot can see: an entry is
// dead once a strictly newer committed version (the next chain entry, or
// the frame's last captured image) is itself visible at the GC floor.
func (p *Pool) pruneLocked(sh *shard, id PageID) {
	ch := sh.versions[id]
	if len(ch) == 0 {
		return
	}
	mp := p.minPinned.Load()
	i := 0
	for i < len(ch) {
		succ := sh.stamps[id]
		if i+1 < len(ch) {
			succ = ch[i+1].stamp
		}
		if succ > ch[i].stamp && succ <= mp {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return
	}
	p.liveVersions.Add(int64(-i))
	if i == len(ch) {
		delete(sh.versions, id)
		return
	}
	sh.versions[id] = append(ch[:0:0], ch[i:]...)
}

// SweepVersions prunes every page's version chain against the current GC
// floor. The store calls it at checkpoint, when the pipeline is drained
// and old pinned snapshots have typically gone away.
func (p *Pool) SweepVersions() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id := range sh.versions {
			p.pruneLocked(sh, id)
		}
		sh.mu.Unlock()
	}
}

// PinView registers a read snapshot at the newest published stamp and
// returns that stamp. Every PinView must be paired with UnpinView, which
// is what lets version GC advance past the snapshot.
func (p *Pool) PinView() uint64 {
	p.pinMu.Lock()
	s := p.published.Load()
	p.pins[s]++
	p.pinMu.Unlock()
	return s
}

// UnpinView releases a snapshot pinned by PinView.
func (p *Pool) UnpinView(stamp uint64) {
	p.pinMu.Lock()
	if n := p.pins[stamp] - 1; n > 0 {
		p.pins[stamp] = n
	} else {
		delete(p.pins, stamp)
	}
	p.recomputeFloorLocked()
	p.pinMu.Unlock()
}

// Publish makes stamp (and every stamp below it) visible to new readers.
// The store calls it once the commit that produced the stamp is durable;
// group commit makes a durable batch imply every predecessor is durable,
// so a max-store publishes in commit order regardless of Wait ordering.
func (p *Pool) Publish(stamp uint64) {
	p.pinMu.Lock()
	if stamp > p.published.Load() {
		p.published.Store(stamp)
	}
	p.recomputeFloorLocked()
	p.pinMu.Unlock()
}

// Published returns the newest stamp visible to readers.
func (p *Pool) Published() uint64 { return p.published.Load() }

// recomputeFloorLocked refreshes the GC floor; pinMu held.
func (p *Pool) recomputeFloorLocked() {
	mp := p.published.Load()
	for s := range p.pins {
		if s < mp {
			mp = s
		}
	}
	p.minPinned.Store(mp)
}

// OldestPinned returns the oldest stamp a live snapshot is pinned at, or
// the published stamp when no snapshot is pinned (the GC floor).
func (p *Pool) OldestPinned() uint64 { return p.minPinned.Load() }

// PinnedViews returns the number of live PinView pins.
func (p *Pool) PinnedViews() int {
	p.pinMu.Lock()
	n := 0
	for _, c := range p.pins {
		n += c
	}
	p.pinMu.Unlock()
	return n
}

// LiveVersions returns the number of retained page pre-images.
func (p *Pool) LiveVersions() int64 { return p.liveVersions.Load() }

// ViewPage resolves the bytes of page id as of the pinned stamp into the
// handle v (v.ID, v.Data), without pinning. v.Data is immutable (writers
// swap buffers, never overwrite) and stays valid until EndView(v), which
// every successful ViewPage must be paired with: an answer from a frame
// counts the read on the frame, so eviction cannot reuse that buffer
// before the reader is done.
//
// When the page's last capture is not newer than the view, the newest
// committed image is the answer and nothing on the version chain may
// stand in for it: the frame itself when it holds that image, or — frame
// absent — the database file, which is current for evicted pages (no-steal
// plus write-back-before-clean guarantee). Only otherwise (the frame is
// mid copy-on-write cycle, or the last capture is newer than the view)
// does the newest chain entry at or below the view answer. Any other
// state is a GC bug and returns a counted error rather than wrong bytes.
func (p *Pool) ViewPage(id PageID, stamp uint64, v *Frame) error {
	sh := p.shardOf(id)
	p.lock(sh)
	defer sh.mu.Unlock()
	v.ID = id
	f, ok := sh.frames[id]
	if sh.stamps[id] <= stamp {
		if !ok {
			nf, err := p.getLocked(sh, id, true)
			if err != nil {
				return err
			}
			// getLocked pinned the frame; release it inline (lock already held).
			nf.pins--
			if nf.pins == 0 {
				nf.elem = sh.lru.PushBack(nf)
			}
			viewFrameLocked(v, nf)
			return nil
		}
		if !f.unc {
			p.hits.Add(1)
			viewFrameLocked(v, f)
			return nil
		}
		// Mid-cycle frame: Prepare pushed the committed image as the
		// chain's top entry, which the search below finds.
	}
	if ch := sh.versions[id]; len(ch) > 0 {
		// Newest entry with entry.stamp <= stamp.
		lo, hi := 0, len(ch)
		for lo < hi {
			mid := (lo + hi) / 2
			if ch[mid].stamp <= stamp {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			p.hits.Add(1)
			v.Data = ch[lo-1].data
			return nil
		}
	}
	p.versionErrs.Add(1)
	return fmt.Errorf("pager: no version of page %d visible at stamp %d (last capture %d)", id, stamp, sh.stamps[id])
}

// viewFrameLocked answers the view v with frame f's buffer and counts the
// read on f; the shard lock is held, so eviction sees the count.
func viewFrameLocked(v, f *Frame) {
	f.readers.Add(1)
	v.Data = f.Data
	v.src = f
}

// EndView ends a snapshot read begun by ViewPage: v.Data must not be used
// after, and the buffer becomes reusable once no other reader holds it.
func (p *Pool) EndView(v *Frame) {
	if v.src != nil {
		v.src.readers.Add(-1)
		v.src = nil
	}
	v.Data = nil
}

func (p *Pool) getLocked(sh *shard, id PageID, read bool) (*Frame, error) {
	if f, ok := sh.frames[id]; ok {
		p.hits.Add(1)
		if f.pins == 0 && f.elem != nil {
			sh.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return f, nil
	}
	buf := evictLocked(sh)
	if buf == nil {
		p.bufAlloc.Add(1)
		buf = make([]byte, PageSize)
	} else {
		p.bufReused.Add(1)
		if !read {
			clear(buf)
		}
	}
	f := &Frame{ID: id, Data: buf, pins: 1}
	if read {
		p.misses.Add(1)
		if err := p.file.ReadPage(id, f.Data); err != nil {
			return nil, err
		}
	}
	sh.frames[id] = f
	return f, nil
}

// evictLocked makes room for one more frame in the shard. The pool is
// no-steal: dirty frames are never written to the database file before the
// WAL journals them at commit, so only clean unpinned frames are eviction
// victims. When every frame is dirty or pinned the shard grows past its
// soft capacity for the remainder of the transaction.
//
// It returns the victim's buffer for the new frame when nothing else can
// read it: no snapshot read is between ViewPage and EndView on the victim,
// and the buffer never sat on a version chain. Otherwise — or when the
// shard had room — it returns nil and the caller allocates.
func evictLocked(sh *shard) []byte {
	var buf []byte
	for len(sh.frames) >= sh.capacity {
		var victim *Frame
		for e := sh.lru.Front(); e != nil; e = e.Next() {
			if f := e.Value.(*Frame); !f.dirty {
				victim = f
				break
			}
		}
		if victim == nil {
			return buf // soft capacity: all candidates dirty or pinned
		}
		sh.lru.Remove(victim.elem)
		victim.elem = nil
		delete(sh.frames, victim.ID)
		if buf == nil && !victim.shared && victim.readers.Load() == 0 {
			buf = victim.Data
			victim.Data = nil
		}
	}
	return buf
}

// Release unpins the frame.
func (p *Pool) Release(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	if f.pins <= 0 {
		panic("pager: Release of unpinned frame")
	}
	f.pins--
	if f.pins == 0 {
		f.elem = sh.lru.PushBack(f)
	}
}

// MarkDirty records that the frame's contents changed. Every call bumps
// the frame's dirty generation, so a commit snapshot taken between two
// mutations can tell whether the frame changed again after it was
// captured.
func (p *Pool) MarkDirty(f *Frame) {
	sh := p.shardOf(f.ID)
	p.lock(sh)
	defer sh.mu.Unlock()
	f.dirty = true
	f.gen++
	sh.listLocked(f)
}

// DiscardDirty drops every dirty frame from the pool, so subsequent reads
// observe the last durable contents, and closes the copy-on-write cycle of
// every frame it keeps. Frames must be unpinned. Page allocations since
// the last clean point are rolled back by resetting the next-allocation
// cursor to the file's size. This implements transaction abort for the
// commit-journal WAL scheme. It first writes the snapshots a failed
// WriteBack left, and discards nothing while it cannot.
func (p *Pool) DiscardDirty() error {
	if err := p.WriteBack(nil); err != nil {
		return err
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		var err error
		for _, f := range sh.dirty {
			if !sh.resident(f) {
				continue
			}
			if !f.dirty {
				p.repairCleanLocked(sh, f)
				continue
			}
			if f.pins > 0 {
				err = fmt.Errorf("pager: DiscardDirty: page %d still pinned", f.ID)
				break
			}
			if f.elem != nil {
				sh.lru.Remove(f.elem)
				f.elem = nil
			}
			delete(sh.frames, f.ID)
		}
		sh.compactLocked()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	n, err := p.file.NumPages()
	if err != nil {
		return err
	}
	p.next.Store(uint32(n))
	return nil
}

// repairCleanLocked undoes an open copy-on-write cycle on a frame the
// rollback keeps (Prepared but never re-dirtied): the chain's top entry is
// the committed image Prepare displaced, so restore it and pop the entry.
// Readers that found the entry on the chain hold it uncounted, so the
// frame is marked shared: eviction never reuses this buffer.
func (p *Pool) repairCleanLocked(sh *shard, f *Frame) {
	if !f.unc {
		return
	}
	f.unc = false
	ch := sh.versions[f.ID]
	if len(ch) > 0 && ch[len(ch)-1].stamp == sh.stamps[f.ID] {
		f.Data = ch[len(ch)-1].data
		f.shared = true
		if len(ch) == 1 {
			delete(sh.versions, f.ID)
		} else {
			sh.versions[f.ID] = ch[:len(ch)-1]
		}
		p.liveVersions.Add(-1)
	}
}

// Shrink cuts the pool and its file back to n pages — or to just past the
// highest page at or beyond n that a commit after stamp since captured,
// which is in use again. Frames, version chains and capture stamps of the
// cut pages go with them. The caller vouches that nothing committed up to
// since reaches a page at or past n (a snapshot install of an n-page image
// at since) and that no view older than since remains; it holds the
// store's write latch with the pool flushed.
func (p *Pool) Shrink(n uint32, since uint64) error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, st := range sh.stamps {
			if uint32(id) >= n && st > since {
				n = uint32(id) + 1
			}
		}
		sh.mu.Unlock()
	}
	if n >= p.next.Load() {
		return nil
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if uint32(id) >= n {
				if f.elem != nil {
					sh.lru.Remove(f.elem)
				}
				delete(sh.frames, id)
			}
		}
		for id, ch := range sh.versions {
			if uint32(id) >= n {
				p.liveVersions.Add(int64(-len(ch)))
				delete(sh.versions, id)
			}
		}
		maps.DeleteFunc(sh.stamps, func(id PageID, _ uint64) bool { return uint32(id) >= n })
		sh.mu.Unlock()
	}
	p.next.Store(n)
	return p.file.TruncatePages(n)
}

// snapPage is one dirty frame captured by Snapshot: the frame, its dirty
// generation at capture time, and the buffer it held then. The buffer is
// shared with the frame, not copied; see Snapshot for why it cannot
// change before WriteBack has written it.
type snapPage struct {
	f    *Frame
	gen  uint64
	data []byte
}

// Snapshot is the set of page images one commit captured from the pool's
// dirty frames. The images are what the WAL journals and what WriteBack
// later writes to the database file, and they stay stable even while
// later transactions re-dirty the same frames.
type Snapshot struct {
	pages []snapPage
	stamp uint64
}

// Stamp returns the commit stamp assigned when the snapshot was captured.
// Publishing this stamp (after the commit is durable) makes the captured
// state visible to new read views.
func (s *Snapshot) Stamp() uint64 { return s.stamp }

// Len returns the number of captured pages.
func (s *Snapshot) Len() int { return len(s.pages) }

// Frames returns the snapshot as detached frames sorted by page id — the
// shape the WAL journals. Their Data are the captured images themselves,
// which stay unchanged (see Snapshot).
func (s *Snapshot) Frames() []*Frame {
	out := make([]*Frame, len(s.pages))
	for i, sp := range s.pages {
		out[i] = &Frame{ID: sp.f.ID, Data: sp.data}
	}
	return out
}

// Snapshot captures the dirty frames the committing transaction changed:
// each frame's buffer and dirty generation, sorted by page id. It walks
// the shards' dirty lists, not their frames, so its cost follows the pages
// written since the last walk. A dirty frame whose generation is unchanged
// since an earlier snapshot captured it is skipped — that predecessor's
// commit already journaled the identical image (and its queued WriteBack
// will write it), so re-capturing would only grow WAL batches with the
// depth of the commit pipeline. Replay stays correct because WAL batches
// are appended in commit order: a durable batch implies every predecessor
// batch is durable too. The caller must hold the store's write latch so
// no writer mutates frames mid-capture; concurrent readers are fine.
//
// The capture shares each frame's buffer instead of copying it, which is
// safe by the invariant snapshot readers already rely on: once Snapshot
// closes the frame's copy-on-write cycle (clears unc), no one writes that
// buffer in place again. The next writer's Prepare swaps a fresh buffer
// into the frame and pushes the captured one onto the version chain,
// where it is never written or reused; AllocateAt re-buffers likewise.
// And the captured frame stays dirty until WriteBack writes this image,
// so eviction, which recycles only clean frames' buffers, cannot hand the
// buffer to another page while the WAL or the write-back still needs it.
func (p *Pool) Snapshot() *Snapshot {
	snap := &Snapshot{stamp: p.stampSeq.Add(1)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.dirty {
			if sh.resident(f) && f.dirty && f.gen != f.capGen {
				f.capGen = f.gen
				snap.pages = append(snap.pages, snapPage{f: f, gen: f.gen, data: f.Data})
				// The frame now holds this commit's image: stamp it and
				// end the copy-on-write cycle Prepare opened.
				sh.stamps[f.ID] = snap.stamp
				f.unc = false
			}
		}
		sh.compactLocked()
		sh.mu.Unlock()
	}
	slices.SortFunc(snap.pages, func(a, b snapPage) int { return cmp.Compare(a.f.ID, b.f.ID) })
	return snap
}

// WriteBack writes a snapshot's page images to the file (without syncing)
// and clears the dirty bit of every frame whose generation is unchanged
// since the snapshot — a frame re-dirtied by a later transaction stays
// dirty so that transaction's commit journals and writes it again. The
// snapshot image is always written even on a generation mismatch: it is
// the committed content, and the file must not be left behind the WAL
// when the later transaction rolls back.
//
// A snapshot whose write fails is kept with the pages not written yet,
// and written before anything else: by every later WriteBack (s nil
// writes only those) and before FlushAll and DiscardDirty. Its frames
// stay dirty meanwhile, so eviction leaves their images intact. The
// caller orders WriteBacks by commit, as the store's pipeline does.
func (p *Pool) WriteBack(s *Snapshot) error {
	p.unwrittenMu.Lock()
	defer p.unwrittenMu.Unlock()
	if s != nil {
		p.unwritten = append(p.unwritten, s)
	}
	for len(p.unwritten) > 0 {
		s := p.unwritten[0]
		for i, sp := range s.pages {
			p.pageWrites.Add(1)
			if err := p.file.WritePage(sp.f.ID, sp.data); err != nil {
				s.pages = s.pages[i:]
				return err
			}
			sh := p.shardOf(sp.f.ID)
			sh.mu.Lock()
			if sp.f.gen == sp.gen {
				sp.f.dirty = false
			}
			sh.mu.Unlock()
		}
		p.unwritten = slices.Delete(p.unwritten, 0, 1)
	}
	return nil
}

// FlushAll writes every dirty frame to the file and syncs it. Used at
// checkpoints.
func (p *Pool) FlushAll() error {
	if err := p.WriteBack(nil); err != nil {
		return err
	}
	if err := p.writeDirty(); err != nil {
		return err
	}
	return p.file.Sync()
}

// writeDirty writes every listed dirty frame to the file and closes every
// listed frame's copy-on-write cycle. Every caller holds the store write
// latch with the commit pipeline drained, so frame contents are
// committed: a cycle left open (Prepared and never re-dirtied) would keep
// the frame invisible to snapshot reads forever.
func (p *Pool) writeDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		var err error
		for _, f := range sh.dirty {
			if !sh.resident(f) {
				continue
			}
			if f.dirty {
				p.pageWrites.Add(1)
				if err = p.file.WritePage(f.ID, f.Data); err != nil {
					break
				}
				f.dirty = false
			}
			f.unc = false
		}
		sh.compactLocked()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
