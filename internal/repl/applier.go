package repl

import (
	"fmt"
	"sync"

	"sim"
	"sim/internal/pager"
	"sim/internal/wire"
)

// Applier installs replicated groups and snapshots into a follower's
// database, tracking the durable position in a sidecar State file. It is
// the crash-safe core of the follower, separated from the networking so
// the fault harness can drive it directly against scripted storage.
//
// Crash safety, window by window: ApplyGroup commits the group through
// the replica's own commit pipeline (Store.ApplyReplicated: WAL fsync,
// then a published stamp and write-back) before the sidecar is rewritten,
// so a crash before the save resumes at the previous position and
// re-receives a group the database may already contain — harmless,
// because page-image application is idempotent. The save overwrites the
// sidecar's 32 bytes in place; a crash that tears it leaves a record
// that fails its CRC and loads as the zero State, so the follower
// re-snapshots — always safe, never a wrong position. A snapshot install is a
// commit too, but the sidecar is invalidated before it: once the image is
// durable the old position describes another database, so a crash before
// the new position is saved restarts from position 0 and requests a fresh
// snapshot.
type Applier struct {
	db        *sim.Database
	statePath string

	mu sync.Mutex
	st State
}

// NewApplier wraps db with replication apply state persisted at
// statePath. A missing or corrupt sidecar yields position 0, which makes
// the follower request a snapshot.
func NewApplier(db *sim.Database, statePath string) *Applier {
	return &Applier{
		db:        db,
		statePath: statePath,
		st:        LoadState(statePath),
	}
}

// State returns the durable replication position.
func (a *Applier) State() State {
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
	// Invalidate the sidecar first: once the install starts, the old
	// position describes a database that no longer exists.
	if err := SaveState(a.statePath, State{}); err != nil {
		return err
	}
	a.st = State{}
	if err := a.db.ApplySnapshot(img); err != nil {
		return err
	}
	a.st = State{Epoch: epoch, Run: run, Pos: pos}
	return SaveState(a.statePath, a.st)
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
	if err := a.db.ApplyReplicated(pages); err != nil {
		return err
	}
	a.st.Pos = f.Pos
	return SaveState(a.statePath, a.st)
}
