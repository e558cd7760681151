package dmsii

import (
	"encoding/binary"
	"fmt"

	"sim/internal/pager"
	"sim/internal/wal"
)

// This file is the store half of the replication subsystem: the hooks a
// primary needs to publish its committed page groups and base image, and
// the apply path a follower uses to install them. A follower applies each
// incoming group as a commit of its own: through the same pipeline as a
// local transaction — copy-on-write frames, its own WAL, a new published
// stamp, ordered write-back — so readers pinned before the group never see
// it, and a follower crash at any frame boundary recovers exactly like a
// primary crash: the WAL's committed-prefix replay finishes or discards
// the interrupted group.

// SetCommitHook installs fn on the store's WAL: it observes every commit
// group — deduplicated page images plus the request IDs that rode the
// group — in commit order, after the group is durable, and returns the
// replication position the group published at.
func (s *Store) SetCommitHook(fn func(wal.CommitGroup) uint64) {
	s.log.SetOnCommit(fn)
}

// SnapshotImage returns a point-in-time copy of the whole database file:
// the base image a new follower starts from. It takes the write latch,
// drains the commit pipeline and flushes the pool, so the image holds
// exactly the committed state; pos is called while the latch is still
// held, letting the publisher record the position the image is current
// as of without racing later commits.
func (s *Store) SnapshotImage(pos func() uint64) ([]byte, uint64, error) {
	unlock, err := s.lockWrites(false)
	if err != nil {
		return nil, 0, err
	}
	defer unlock()
	if err := s.pool.FlushAll(); err != nil {
		return nil, 0, err
	}
	n, err := s.file.NumPages()
	if err != nil {
		return nil, 0, err
	}
	img := make([]byte, int(n)*pager.PageSize)
	for id := uint32(0); id < n; id++ {
		if err := s.file.ReadPage(pager.PageID(id), img[int(id)*pager.PageSize:]); err != nil {
			return nil, 0, err
		}
	}
	var p uint64
	if pos != nil {
		p = pos()
	}
	return img, p, nil
}

// ApplyReplicated applies one committed page group shipped from a
// primary as a commit of this store. Under the write latch every image
// replaces its page in a dirty frame — Prepare first, so the page's
// version chain keeps the image that pinned readers see; ids past the end
// of the file are allocated — and the live directory handles are
// reattached, since the shipped pages move structure roots. prepare, if
// not nil, runs next under the latch, seeing the shipped state through
// the live structures (see Txn.OnPublish). The group then commits like a
// local transaction: journaled through this store's WAL, a new published
// stamp, write-back in pipeline order. Readers pinned before the group
// keep reading the state they pinned; readers after it see all of it.
// Page images must be full pages.
func (s *Store) ApplyReplicated(pages []pager.PageImage, prepare func(*Txn) error) error {
	_, err := s.applyImages(pages, prepare)
	return err
}

// applyImages is ApplyReplicated returning the commit's stamp.
func (s *Store) applyImages(pages []pager.PageImage, prepare func(*Txn) error) (uint64, error) {
	for _, p := range pages {
		if len(p.Data) != pager.PageSize {
			return 0, fmt.Errorf("dmsii: replicated page %d has %d bytes", p.ID, len(p.Data))
		}
	}
	tx, err := s.Begin()
	if err != nil {
		return 0, err
	}
	err = s.installImages(pages)
	if err == nil && prepare != nil {
		err = prepare(tx)
	}
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	err = tx.Commit()
	return tx.stamp, err
}

// installImages writes shipped page images into the pool as the write
// phase of a commit; the caller holds the write latch. A shipped page 0
// replaces everything but the NodeState record: a primary's groups and
// snapshot images never overwrite a follower's term or position.
func (s *Store) installImages(pages []pager.PageImage) error {
	for _, p := range pages {
		var f *pager.Frame
		var err error
		if uint32(p.ID) >= s.pool.NumPages() {
			f, err = s.pool.AllocateAt(p.ID)
		} else if f, err = s.pool.Get(p.ID); err == nil {
			s.pool.Prepare(f)
		}
		if err != nil {
			return err
		}
		if p.ID == 0 {
			// The node's own record is not the primary's to ship.
			copy(f.Data[:nodeStateOff], p.Data)
			copy(f.Data[nodeStateEnd:], p.Data[nodeStateEnd:])
		} else {
			copy(f.Data, p.Data)
		}
		s.pool.MarkDirty(f)
		s.pool.Release(f)
	}
	return s.reattachDir()
}

// imageTail is a snapshot install whose image may be shorter than the
// file: views pinned before the install may still read the pages past it.
type imageTail struct {
	pages uint32 // the image's page count
	stamp uint64 // the install's commit stamp
}

// ReplaceImage replaces the database with a base image shipped from a
// primary (snapshot install) as one commit of this store, applied like a
// replicated group of every page (see ApplyReplicated): views pinned
// before it keep reading the state they pinned, views after it read the
// image. Pages past the image are cut off the file by the first
// checkpoint after no view from before the install remains. A crash
// mid-install recovers like any commit.
func (s *Store) ReplaceImage(img []byte, prepare func(*Txn) error) error {
	if len(img)%pager.PageSize != 0 || len(img) == 0 {
		return fmt.Errorf("dmsii: snapshot image of %d bytes is not whole pages", len(img))
	}
	if [8]byte(img[magicOff:magicOff+8]) != magic {
		return fmt.Errorf("dmsii: snapshot image is not a SIM database")
	}
	pages := make([]pager.PageImage, len(img)/pager.PageSize)
	for i := range pages {
		pages[i] = pager.PageImage{ID: pager.PageID(i), Data: img[i*pager.PageSize : (i+1)*pager.PageSize]}
	}
	stamp, err := s.applyImages(pages, prepare)
	if err != nil {
		return err
	}
	s.tail.Store(&imageTail{pages: uint32(len(pages)), stamp: stamp})
	return nil
}

// cutTail truncates the pages past the last snapshot install's image once
// no view pinned before the install remains (see Pool.Shrink). The caller
// holds the write latch with the pool flushed.
func (s *Store) cutTail() error {
	t := s.tail.Load()
	if t == nil || s.pool.OldestPinned() < t.stamp {
		return nil
	}
	if err := s.pool.Shrink(t.pages, t.stamp); err != nil {
		return err
	}
	s.tail.CompareAndSwap(t, nil)
	return nil
}

// NodeState is a replicated node's durable state: one fixed record in the
// meta page, written only through Txn.SetNodeState, so it commits, replays
// and recovers with the pages it describes. The zero record is a fresh
// node's.
type NodeState struct {
	Epoch   uint64   // the term the node publishes under; 0 until it claims one
	MaxSeen uint64   // the highest term the node has witnessed
	Follow  Position // the stream the node follows, as far as it has applied it
}

// Position is a place in a primary's replication stream: the primary's
// epoch, its publisher run, and the last group applied.
type Position struct {
	Epoch, Run, Pos uint64
}

func decodeNodeState(b []byte) NodeState {
	u := func(i int) uint64 { return binary.BigEndian.Uint64(b[nodeStateOff+8*i:]) }
	return NodeState{Epoch: u(0), MaxSeen: u(1), Follow: Position{Epoch: u(2), Run: u(3), Pos: u(4)}}
}

// NodeState returns the record as of the newest published commit.
func (s *Store) NodeState() (NodeState, error) {
	v := s.AcquireView()
	defer v.Release()
	meta, err := v.alloc.Get(0)
	if err != nil {
		return NodeState{}, err
	}
	defer v.alloc.Release(meta)
	return decodeNodeState(meta.Data), nil
}

// NodeState returns the record as this transaction sees it: committed
// writes, including ones not yet published, and its own.
func (tx *Txn) NodeState() (NodeState, error) {
	if !tx.wrote {
		return NodeState{}, fmt.Errorf("dmsii: NodeState outside the write latch")
	}
	meta, err := tx.s.pool.Get(0)
	if err != nil {
		return NodeState{}, err
	}
	defer tx.s.pool.Release(meta)
	return decodeNodeState(meta.Data), nil
}

// SetNodeState writes the record as part of this transaction, which
// holds the write latch.
func (tx *Txn) SetNodeState(st NodeState) error {
	if !tx.wrote {
		return fmt.Errorf("dmsii: SetNodeState outside the write latch")
	}
	meta, err := tx.s.pool.Get(0)
	if err != nil {
		return err
	}
	tx.s.pool.Prepare(meta)
	for i, v := range []uint64{st.Epoch, st.MaxSeen, st.Follow.Epoch, st.Follow.Run, st.Follow.Pos} {
		binary.BigEndian.PutUint64(meta.Data[nodeStateOff+8*i:], v)
	}
	tx.s.pool.MarkDirty(meta)
	tx.s.pool.Release(meta)
	return nil
}
