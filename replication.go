package sim

import (
	"sim/internal/dmsii"
	"sim/internal/pager"
	"sim/internal/wal"
)

// This file is the database-level replication surface consumed by
// internal/repl: the primary side publishes committed page groups and
// base images, the follower side installs them. The repl package cannot
// be imported from here (it imports sim), so the coupling is one-way —
// sim exposes hooks, repl drives them.

// OpenStore assembles a Database over an already-open substrate store.
// The replication and fault-injection harnesses use it to run real
// databases over scripted or follower-owned storage; Open is the
// production path. The store is closed on error.
func OpenStore(store *dmsii.Store, cfg Config) (*Database, error) {
	return openStore(store, cfg)
}

// SetCommitHook installs fn to observe every committed page group —
// deduplicated page images in commit order plus the request IDs that rode
// the group, delivered after the group's fsync. The image bytes alias
// commit-internal buffers; fn must copy what it keeps. fn returns the
// replication position the group published at, which flows back into the
// committers' CommitTraces. Errors for in-memory databases (no WAL to
// ship).
func (db *Database) SetCommitHook(fn func(wal.CommitGroup) uint64) error {
	return db.store.SetCommitHook(fn)
}

// SetSchemaHook installs fn to be called with the new schema generation
// after every successful DefineSchema. The publisher uses it to tell
// followers to reload their catalogs.
func (db *Database) SetSchemaHook(fn func(gen uint64)) {
	db.mu.Lock()
	db.schemaHook = fn
	db.mu.Unlock()
}

// SchemaGen returns the schema generation: the number of DDL batches
// defined so far. A follower compares generations across replicated
// groups to decide when a catalog reload is needed.
func (db *Database) SchemaGen() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return uint64(len(db.ddl))
}

// ReplSnapshot returns a point-in-time image of the whole database file
// plus the publisher position it is current as of (pos is read while the
// store's write latch is held, so no commit can slip between the copy
// and the position).
func (db *Database) ReplSnapshot(pos func() uint64) ([]byte, uint64, error) {
	return db.store.SnapshotImage(pos)
}

// ApplyReplicated applies one committed page group shipped from a
// primary. The store commits the group under a new published stamp, so
// queries run alongside the apply: one pinned before the group reads the
// state before it, one after reads all of it. A group that carried a
// schema-generation change (reloadSchema) also rebuilds the catalog,
// mapper and executor from the replicated "~schema" structure; such a
// group takes the statement lock exclusively across the apply and the
// reload, so no query sees the new stamp with the old catalog.
func (db *Database) ApplyReplicated(pages []pager.PageImage, reloadSchema bool) error {
	if !reloadSchema {
		if len(pages) == 0 {
			return nil
		}
		return db.store.ApplyReplicated(pages)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(pages) > 0 {
		if err := db.store.ApplyReplicated(pages); err != nil {
			return err
		}
	}
	return db.loadSchema()
}

// ResetLiveState drops the live mapper's in-memory state — surrogate
// counters, cached statistics and records — so the first write after a
// follower's promotion starts from what the replicated groups left rather
// than from anything cached before them. (The store's live directory
// handles already follow every applied group.)
func (db *Database) ResetLiveState() {
	db.mu.Lock()
	db.mapper.ResetCaches()
	db.mu.Unlock()
}

// ApplySnapshot atomically replaces the database with a base image
// shipped from a primary and reloads the schema from it.
func (db *Database) ApplySnapshot(img []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.store.ReplaceImage(img); err != nil {
		return err
	}
	return db.loadSchema()
}
