package dmsii

import (
	"fmt"
	"runtime"

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
// replication position the group published at. Returns an error for
// in-memory stores (nothing to ship).
func (s *Store) SetCommitHook(fn func(wal.CommitGroup) uint64) error {
	if s.log == nil {
		return fmt.Errorf("dmsii: replication needs a durable store (no WAL)")
	}
	s.log.SetOnCommit(fn)
	return nil
}

// SnapshotImage returns a point-in-time copy of the whole database file:
// the base image a new follower starts from. It takes the write latch,
// drains the commit pipeline and flushes the pool, so the image holds
// exactly the committed state; pos is called while the latch is still
// held, letting the publisher record the position the image is current
// as of without racing later commits.
func (s *Store) SnapshotImage(pos func() uint64) ([]byte, uint64, error) {
	unlock, err := s.lockWrites()
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
// reattached, since the shipped pages move structure roots. The group
// then commits like a local transaction: one snapshot journaled through
// this store's WAL, a new published stamp, write-back in pipeline order
// and the usual checkpoint threshold. Readers pinned before the group
// keep reading the state they pinned; readers after it see all of it.
// Page images must be full pages.
func (s *Store) ApplyReplicated(pages []pager.PageImage) error {
	if s.log == nil {
		return fmt.Errorf("dmsii: replication needs a durable store (no WAL)")
	}
	for _, p := range pages {
		if len(p.Data) != pager.PageSize {
			return fmt.Errorf("dmsii: replicated page %d has %d bytes", p.ID, len(p.Data))
		}
	}
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	if err := s.installImages(pages); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// installImages writes shipped page images into the pool as the write
// phase of a commit; the caller holds the write latch.
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
		copy(f.Data, p.Data)
		s.pool.MarkDirty(f)
		s.pool.Release(f)
	}
	return s.reattachDir()
}

// ReplaceImage atomically replaces the entire database file with a base
// image shipped from a primary (snapshot install). The WAL is truncated
// first: its contents describe the old image, and replaying them over the
// new one after a crash mid-install would corrupt it. A crash between the
// truncate and the final sync leaves a partially written file, which is
// why the follower invalidates its position sidecar before calling this —
// restart then forces a fresh snapshot rather than trusting the file.
func (s *Store) ReplaceImage(img []byte) error {
	if s.log == nil {
		return fmt.Errorf("dmsii: replication needs a durable store (no WAL)")
	}
	if len(img)%pager.PageSize != 0 || len(img) == 0 {
		return fmt.Errorf("dmsii: snapshot image of %d bytes is not whole pages", len(img))
	}
	if [8]byte(img[magicOff:magicOff+8]) != magic {
		return fmt.Errorf("dmsii: snapshot image is not a SIM database")
	}
	unlock, err := s.lockWrites()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.log.Truncate(); err != nil {
		return err
	}
	n := uint32(len(img) / pager.PageSize)
	for id := uint32(0); id < n; id++ {
		if err := s.file.WritePage(pager.PageID(id), img[int(id)*pager.PageSize:(int(id)+1)*pager.PageSize]); err != nil {
			return err
		}
	}
	if tr, ok := s.file.(pager.PageTruncator); ok {
		if err := tr.TruncatePages(n); err != nil {
			return err
		}
	}
	if err := s.file.Sync(); err != nil {
		return err
	}
	return s.invalidateCaches()
}

// invalidateCaches drops every pool frame and reattaches the directory
// from the (just rewritten) meta page, so reads observe the installed
// image. Only the snapshot install changes pages under an unchanged
// published stamp, so it also bumps the store generation and retires the
// current view: readers from here on resolve structure roots afresh
// instead of sharing a view read before the install. The caller holds the
// write latch; concurrent readers may briefly pin frames, so the drop
// retries like resetUncommitted.
func (s *Store) invalidateCaches() error {
	defer func() {
		s.gen.Add(1)
		s.retireStale()
	}()
	var err error
	for i := 0; i < 1000; i++ {
		if err = s.pool.DropAll(); err == nil {
			break
		}
		runtime.Gosched()
	}
	if err != nil {
		return err
	}
	return s.reattachDir()
}
