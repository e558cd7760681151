package dmsii

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"sim/internal/btree"
	"sim/internal/pager"
	"sim/internal/wal"
)

// This file is the store half of the replication subsystem: the hooks a
// primary needs to publish its committed page groups and base image, and
// the apply path a follower uses to install them. Both sides reuse the
// commit machinery — a follower journals each incoming group through its
// own WAL before touching the database file, so a follower crash at any
// frame boundary recovers exactly like a primary crash: the WAL's
// committed-prefix replay finishes or discards the interrupted group.

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
// primary: journal the images through this store's own WAL (crash
// safety), then write them to the database file and drop the pool so
// reads observe the new bytes. Page images must be full pages. The WAL
// is truncated once the file is synced and the log crosses the
// checkpoint threshold, bounding follower log growth just like primary
// commits do.
func (s *Store) ApplyReplicated(pages []pager.PageImage) error {
	if s.log == nil {
		return fmt.Errorf("dmsii: replication needs a durable store (no WAL)")
	}
	frames := make([]*pager.Frame, len(pages))
	for i, p := range pages {
		if len(p.Data) != pager.PageSize {
			return fmt.Errorf("dmsii: replicated page %d has %d bytes", p.ID, len(p.Data))
		}
		frames[i] = &pager.Frame{ID: p.ID, Data: p.Data}
	}
	unlock, err := s.lockWrites()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.log.Commit(frames); err != nil {
		return err
	}
	for _, p := range pages {
		if err := s.file.WritePage(p.ID, p.Data); err != nil {
			return err
		}
	}
	if err := s.invalidateCaches(); err != nil {
		return err
	}
	if s.log.Size() > checkpointThreshold {
		if err := s.file.Sync(); err != nil {
			return err
		}
		return s.log.Truncate()
	}
	return nil
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
// from the (just rewritten) meta page, so reads observe the replicated
// bytes. It is the one place pages change under an unchanged published
// stamp, so it also bumps the store generation and retires the current
// view: readers from here on resolve structure roots afresh instead of
// sharing a view read before the change. The caller holds the write
// latch; concurrent readers may briefly pin frames, so the drop retries
// like resetUncommitted.
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
	meta, err := s.pool.Get(0)
	if err != nil {
		return err
	}
	dirRoot := pager.PageID(binary.BigEndian.Uint32(meta.Data[dirRootOff:]))
	s.pool.Release(meta)
	s.dirMu.Lock()
	s.open = make(map[string]*Structure)
	s.dir = btree.Open(s, dirRoot, s.setDirRoot)
	s.dirMu.Unlock()
	return nil
}
