package repl

import (
	"fmt"
	"sync"

	"sim"
	"sim/internal/dmsii"
	"sim/internal/pager"
	"sim/internal/wire"
)

// Applier installs replicated groups and snapshots into a follower's
// database. It is the crash-safe core of the follower, separated from the
// networking so the fault harness can drive it directly against scripted
// storage.
//
// Crash safety: the followed position lives in the database's own record
// (dmsii.NodeState), and every group and snapshot install writes it in
// the commit that installs its pages — through the replica's own WAL, a
// published stamp and write-back. A crash anywhere leaves the pages and
// the position of the same commit: the follower resumes exactly where its
// recovered database is.
type Applier struct {
	db *sim.Database

	mu sync.Mutex
	st dmsii.Position
}

// NewApplier wraps db, resuming from the position its record holds. A
// fresh database, or one whose record cannot be read, is at position 0,
// which makes the follower request a snapshot.
//
// Deprecated: the statePath argument is ignored, for the position lives
// in db. It stays while the benchmark module passes it.
func NewApplier(db *sim.Database, statePath string) *Applier {
	st, _ := db.NodeState()
	return &Applier{db: db, st: st.Follow}
}

// State returns the durable replication position.
func (a *Applier) State() dmsii.Position {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// Pos returns the durable applied position.
func (a *Applier) Pos() uint64 { return a.State().Pos }

// ApplySnapshot replaces the database with a base image that is current
// as of pos within (epoch, run), as one commit of the follower.
func (a *Applier) ApplySnapshot(epoch, run, pos uint64, img []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := dmsii.Position{Epoch: epoch, Run: run, Pos: pos}
	if err := a.db.ApplySnapshot(img, at); err != nil {
		return err
	}
	a.st = at
	return nil
}

// ApplyGroup applies one replicated commit group. Groups at or before
// the applied position are skipped (idempotent redelivery after a
// resume); a gap, an epoch change, or a publisher-run change is an
// error — the follower reconnects and lets the primary decide between
// tail and snapshot. A group's schema generation (f.Gen) is not read:
// the database publishes the schema a group committed from its pages.
func (a *Applier) ApplyGroup(f wire.ReplFrames) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if f.Epoch != a.st.Epoch || f.Run != a.st.Run {
		return fmt.Errorf("repl: group from epoch %d run %d, following epoch %d run %d",
			f.Epoch, f.Run, a.st.Epoch, a.st.Run)
	}
	if f.Pos <= a.st.Pos {
		return nil
	}
	if f.Pos != a.st.Pos+1 {
		return fmt.Errorf("repl: group gap: have %d, got %d", a.st.Pos, f.Pos)
	}
	pages := make([]pager.PageImage, len(f.Pages))
	for i, pg := range f.Pages {
		pages[i] = pager.PageImage{ID: pager.PageID(pg.ID), Data: pg.Data}
	}
	at := dmsii.Position{Epoch: a.st.Epoch, Run: a.st.Run, Pos: f.Pos}
	if err := a.db.ApplyReplicated(pages, at); err != nil {
		return err
	}
	a.st = at
	return nil
}
