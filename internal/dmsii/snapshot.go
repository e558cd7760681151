package dmsii

import (
	"encoding/binary"
	"errors"
	"maps"
	"sync"
	"sync/atomic"

	"sim/internal/btree"
	"sim/internal/pager"
)

// errSnapshotRO guards the btree.Alloc mutation entry points of snapshot
// views; Structure.mutable fails first on every public path, so hitting
// this means a caller bypassed the Structure API.
var errSnapshotRO = errors.New("dmsii: snapshot views are read-only")

// snapAlloc adapts ViewPage to btree.Alloc so an unmodified B+tree can
// traverse the store as of one commit stamp. Get hands out lightweight
// Frame wrappers around the immutable version buffers — there is no pin
// accounting to do (version GC is governed by the view pin, not by frame
// pins), so wrappers are pooled and recycled on Release.
type snapAlloc struct {
	pool  *pager.Pool
	stamp uint64
}

var snapFrames = sync.Pool{New: func() any { return new(pager.Frame) }}

func (a *snapAlloc) Get(id pager.PageID) (*pager.Frame, error) {
	data, err := a.pool.ViewPage(id, a.stamp)
	if err != nil {
		return nil, err
	}
	f := snapFrames.Get().(*pager.Frame)
	f.ID = id
	f.Data = data
	return f, nil
}

func (a *snapAlloc) Release(f *pager.Frame) {
	f.Data = nil
	snapFrames.Put(f)
}

func (a *snapAlloc) AllocPage() (*pager.Frame, error) { return nil, errSnapshotRO }
func (a *snapAlloc) FreePage(pager.PageID) error      { return errSnapshotRO }
func (a *snapAlloc) Prepare(*pager.Frame)             {}
func (a *snapAlloc) MarkDirty(*pager.Frame)           {}

// stampTable holds the read-only structure handles of one published
// commit stamp and store generation, shared by every Snap pinned there:
// the directory is read once per stamp, not once per statement. A handle
// names a root page, which cannot change under a fixed stamp except when
// the store's pages are replaced wholesale (a follower installing
// replicated pages); invalidateCaches bumps the generation then, so the
// next pin builds a fresh table. A structure absent from the directory at
// the stamp had no rows then, so it reads as empty — and is cached as
// such — rather than being created in the live store.
type stampTable struct {
	s     *Store
	stamp uint64
	gen   uint64
	alloc snapAlloc

	open atomic.Pointer[map[string]*Structure] // copy-on-write; lock-free hits
	mu   sync.Mutex                            // serializes misses
	dir  *btree.Tree                           // directory as of stamp, opened on the first miss
}

// tableAt returns the structure table for stamp at the current store
// generation, sharing the newest one when it matches.
func (s *Store) tableAt(stamp uint64) *stampTable {
	gen := s.gen.Load()
	if t := s.table.Load(); t != nil && t.stamp == stamp && t.gen == gen {
		return t
	}
	t := &stampTable{s: s, stamp: stamp, gen: gen, alloc: snapAlloc{pool: s.pool, stamp: stamp}}
	s.table.Store(t)
	return t
}

// structure resolves name as of the table's stamp.
func (t *stampTable) structure(name string) (*Structure, error) {
	if m := t.open.Load(); m != nil {
		if st, ok := (*m)[name]; ok {
			return st, nil
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.open.Load()
	if old != nil {
		if st, ok := (*old)[name]; ok {
			return st, nil
		}
	}
	if t.dir == nil {
		meta, err := t.s.pool.ViewPage(0, t.stamp)
		if err != nil {
			return nil, err
		}
		t.dir = btree.Open(&t.alloc, pager.PageID(binary.BigEndian.Uint32(meta[dirRootOff:])), nil)
	}
	rootBytes, found, err := t.dir.Get([]byte(name))
	if err != nil {
		return nil, err
	}
	root := pager.Invalid // absent at this stamp: an empty tree
	if found {
		root = pager.PageID(binary.BigEndian.Uint32(rootBytes))
	}
	st := &Structure{s: t.s, name: name, tree: btree.Open(&t.alloc, root, nil), ro: true}
	next := map[string]*Structure{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[name] = st
	t.open.Store(&next)
	return st, nil
}

// Snap is a pinned, immutable read view of the store at one published
// commit stamp. Its structures resolve pages through the pool's version
// chains, so a Snap never takes the store write latch, never observes
// uncommitted bytes, and keeps returning the same data while later
// transactions commit. A Snap is safe for concurrent readers (parallel
// query workers share one). Every PinSnapshot must be paired with
// Release, which is what lets version GC reclaim old page images.
type Snap struct {
	t        *stampTable // shared by every Snap at the same stamp
	released atomic.Bool
}

// PinSnapshot pins a read view at the newest published commit stamp.
func (s *Store) PinSnapshot() *Snap {
	return &Snap{t: s.tableAt(s.pool.PinView())}
}

// Stamp returns the commit stamp the view is pinned at.
func (sn *Snap) Stamp() uint64 { return sn.t.stamp }

// Release unpins the view, allowing version GC to advance past it. It is
// idempotent; structures obtained from the view must not be used after.
func (sn *Snap) Release() {
	if sn.released.CompareAndSwap(false, true) {
		sn.t.s.pool.UnpinView(sn.t.stamp)
	}
}

// Structure opens a read-only view of the named structure as of the
// snapshot. Handles are shared by every Snap at the same stamp. A
// structure absent from the snapshot's directory — created after the pin,
// or never — reads as empty: it had no rows at the stamp, and a reader
// never creates structures (which would allocate pages outside any
// transaction).
func (sn *Snap) Structure(name string) (*Structure, error) { return sn.t.structure(name) }

// Published returns the newest commit stamp visible to new snapshots.
func (s *Store) Published() uint64 { return s.pool.Published() }

// OldestPinned returns the version-GC floor: the oldest stamp a live
// snapshot is pinned at, or the published stamp with none pinned.
func (s *Store) OldestPinned() uint64 { return s.pool.OldestPinned() }

// PinnedViews returns the number of live pinned snapshots.
func (s *Store) PinnedViews() int { return s.pool.PinnedViews() }

// LiveVersions returns the number of retained copy-on-write page images.
func (s *Store) LiveVersions() int64 { return s.pool.LiveVersions() }
