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
// traverse the store as of one commit stamp. Get hands out ViewPage
// handles over immutable page buffers — there is no pin accounting to do
// (version GC is governed by the view pin, not by frame pins). A handle's
// Data is valid from Get to Release: Release ends the read (EndView), after
// which the pool may reuse a frame buffer for another page, so the B+tree
// copies whatever it keeps (cursor cells, Get values, overflow chains)
// before releasing. Handles are pooled and recycled on Release.
type snapAlloc struct {
	pool  *pager.Pool
	stamp uint64
}

var snapFrames = sync.Pool{New: func() any { return new(pager.Frame) }}

func (a *snapAlloc) Get(id pager.PageID) (*pager.Frame, error) {
	f := snapFrames.Get().(*pager.Frame)
	if err := a.pool.ViewPage(id, a.stamp, f); err != nil {
		snapFrames.Put(f)
		return nil, err
	}
	return f, nil
}

func (a *snapAlloc) Release(f *pager.Frame) {
	a.pool.EndView(f)
	snapFrames.Put(f)
}

func (a *snapAlloc) AllocPage() (*pager.Frame, error) { return nil, errSnapshotRO }
func (a *snapAlloc) FreePage(pager.PageID) error      { return errSnapshotRO }
func (a *snapAlloc) Prepare(*pager.Frame)             {}
func (a *snapAlloc) MarkDirty(*pager.Frame)           {}

// View is an immutable read view of the store at one published commit
// stamp, shared by every reader there. It holds the pool's version-GC pin
// once, reads the directory once, and caches the read-only structure
// handles it resolves. A handle names a root page, which cannot change
// under a fixed stamp: every change to the pages — a local commit, a
// replicated group, a snapshot install — publishes a new stamp.
// A structure absent from the directory at the stamp had no rows then, so
// it reads as empty — and is cached as such — rather than being created
// in the live store.
//
// Lifecycle: AcquireView hands out the current view with one reference
// taken, building it on the first read after it was retired; Release
// drops the reference. While current, the view holds one more reference
// of the store's own. A commit's publish retires the current view,
// dropping that reference, so a view nobody reads any more unpins at once
// and an idle reader never holds back version GC. The pin is dropped with
// the last reference.
type View struct {
	s     *Store
	stamp uint64
	alloc snapAlloc
	refs  atomic.Int64 // holders, plus the store's own while current

	open atomic.Pointer[map[string]*Structure] // copy-on-write; lock-free hits
	mu   sync.Mutex                            // serializes misses

	// The meta page as of stamp, read when the view is built: the
	// directory, the statistics version, or the error reading them.
	dir      *btree.Tree
	statsVer uint64
	metaErr  error

	attached atomic.Value // see Attach
}

// AcquireView returns the current read view with one reference taken;
// the caller calls Release exactly once. The view is the newest
// published stamp's: a view that a publish has made stale is retired
// here rather than handed out, so a read started after a commit returned
// sees that commit.
func (s *Store) AcquireView() *View {
	for {
		v := s.view.Load()
		if v == nil {
			return s.buildView()
		}
		if !v.ref() {
			// Drained since the load. The store's own reference goes only
			// once the view has left s.view, so a current view can drain
			// only if some holder released twice.
			if s.view.Load() == v {
				panic("dmsii: the current view drained: a reference was released twice")
			}
			continue
		}
		if v.fresh() {
			return v
		}
		v.Release()
		s.retireStale()
	}
}

// buildView pins a new view at the newest published stamp and installs
// it as current unless a concurrent reader installed one first (then the
// new view serves only its builder). A publish that landed while the
// view was built makes it stale on arrival; it is retired again at once,
// or it would keep its stamp pinned until the next commit.
func (s *Store) buildView() *View {
	stamp := s.pool.PinView()
	v := &View{s: s, stamp: stamp, alloc: snapAlloc{pool: s.pool, stamp: stamp}}
	if meta, err := v.alloc.Get(0); err != nil {
		v.metaErr = err
	} else {
		v.dir = btree.Open(&v.alloc, pager.PageID(binary.BigEndian.Uint32(meta.Data[dirRootOff:])), nil)
		v.statsVer = binary.BigEndian.Uint64(meta.Data[statsVersionOff:])
		v.alloc.Release(meta)
	}
	v.refs.Store(2) // the builder's and, once installed, the store's
	if !s.view.CompareAndSwap(nil, v) {
		v.refs.Store(1)
		return v
	}
	s.retireStale()
	return v
}

// retireStale retires the current view when a publish has passed it: the
// store drops its reference, and the pin goes with the view's last reader.
// The commit path calls it after every publish (a follower's applied
// groups and snapshot installs included).
func (s *Store) retireStale() {
	if v := s.view.Load(); v != nil && !v.fresh() && s.view.CompareAndSwap(v, nil) {
		v.Release()
	}
}

// fresh reports whether v still reads the newest published state.
func (v *View) fresh() bool {
	return v.stamp == v.s.pool.Published()
}

// ref takes a reference unless the view has already drained.
func (v *View) ref() bool {
	for {
		n := v.refs.Load()
		if n == 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference taken by AcquireView; the last one unpins
// the view's stamp. Structures obtained from the view must not be used
// after. It must be called exactly once per AcquireView — a holder that
// may release twice wraps its reference in a Snap.
func (v *View) Release() {
	switch n := v.refs.Add(-1); {
	case n == 0:
		v.s.pool.UnpinView(v.stamp)
	case n < 0:
		panic("dmsii: View released more often than acquired")
	}
}

// Stamp returns the commit stamp the view reads at.
func (v *View) Stamp() uint64 { return v.stamp }

// Attached returns the value last attached to the view, or nil.
func (v *View) Attached() any { return v.attached.Load() }

// Attach keeps x with the view for every later holder, so an upper layer
// builds its per-view state (the database layer's snapshot mapper and
// executor) once per view rather than once per reader. Concurrent
// attaches race benignly — the last one wins — and every call must pass
// the same concrete type.
func (v *View) Attach(x any) { v.attached.Store(x) }

// Structure opens a read-only view of the named structure as of the
// view's stamp. A structure absent from the directory at the stamp —
// created later, or never — reads as empty: it had no rows at the stamp,
// and a reader never creates structures (which would allocate pages
// outside any transaction).
func (v *View) Structure(name string) (*Structure, error) {
	if m := v.open.Load(); m != nil {
		if st, ok := (*m)[name]; ok {
			return st, nil
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.open.Load()
	if old != nil {
		if st, ok := (*old)[name]; ok {
			return st, nil
		}
	}
	if v.metaErr != nil {
		return nil, v.metaErr
	}
	var buf [4]byte
	rootBytes, found, err := v.dir.GetAppend(buf[:0], []byte(name))
	if err != nil {
		return nil, err
	}
	root := pager.Invalid // absent at this stamp: an empty tree
	if found {
		root = pager.PageID(binary.BigEndian.Uint32(rootBytes))
	}
	st := &Structure{s: v.s, name: name, tree: btree.Open(&v.alloc, root, nil), ro: true}
	next := map[string]*Structure{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[name] = st
	v.open.Store(&next)
	return st, nil
}

// StatsVersion returns the statistics version committed at the view's
// stamp (see Store.RaiseStatsVersion).
func (v *View) StatsVersion() (uint64, error) { return v.statsVer, v.metaErr }

// Snap is one holder's reference to a read view: a pinned, immutable
// view of the store at one published commit stamp. Its structures
// resolve pages through the pool's version chains, so a Snap never takes
// the store write latch, never observes uncommitted bytes, and keeps
// returning the same data while later transactions commit. A Snap is
// safe for concurrent readers. Every
// PinSnapshot must be paired with Release, which is what lets version GC
// reclaim old page images.
type Snap struct {
	*View
	released atomic.Bool
}

// PinSnapshot pins a read view at the newest published commit stamp.
func (s *Store) PinSnapshot() *Snap { return &Snap{View: s.AcquireView()} }

// Release drops this holder's reference on the view, allowing version GC
// to advance past it once no other holder reads there. It is idempotent
// per Snap: releasing twice never drops another holder's reference.
func (sn *Snap) Release() {
	if sn.released.CompareAndSwap(false, true) {
		sn.View.Release()
	}
}

// Published returns the newest commit stamp visible to new snapshots.
func (s *Store) Published() uint64 { return s.pool.Published() }

// OldestPinned returns the version-GC floor: the oldest stamp a live
// snapshot is pinned at, or the published stamp with none pinned.
func (s *Store) OldestPinned() uint64 { return s.pool.OldestPinned() }

// PinnedViews returns the number of read views holding a version-GC pin
// (see View): readers sharing one view count once.
func (s *Store) PinnedViews() int { return s.pool.PinnedViews() }

// LiveVersions returns the number of retained copy-on-write page images.
func (s *Store) LiveVersions() int64 { return s.pool.LiveVersions() }
