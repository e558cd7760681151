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
// committers' CommitTraces.
func (db *Database) SetCommitHook(fn func(wal.CommitGroup) uint64) {
	db.store.SetCommitHook(fn)
}

// ReplSnapshot returns a point-in-time image of the whole database file
// plus the publisher position it is current as of (pos is read while the
// store's write latch is held, so no commit can slip between the copy
// and the position).
func (db *Database) ReplSnapshot(pos func() uint64) ([]byte, uint64, error) {
	return db.store.SnapshotImage(pos)
}

// ApplyReplicated applies one committed page group shipped from a
// primary, and records the stream position at it reaches, in one commit.
// The store commits the group under a new published stamp, so queries run
// alongside the apply: one pinned before the group reads the state before
// it, one after reads all of it. A group that committed a DDL batch also
// publishes the schema generation it extends (see reload). The group's
// page 0 carries the primary's statistics version, so a cached plan whose
// classes it moved to another size bucket is re-made (see
// planEntry.holds).
func (db *Database) ApplyReplicated(pages []pager.PageImage, at dmsii.Position) error {
	return db.store.ApplyReplicated(pages, follow(at, db.reload(false)))
}

// ApplySnapshot replaces the database with a base image shipped from a
// primary, current as of position at, as one commit under a new published
// stamp — statements pinned before it keep reading the state they pinned —
// and publishes the image's schema, a generation whose plan cache starts
// empty. The image and its position are durable together or not at all.
func (db *Database) ApplySnapshot(img []byte, at dmsii.Position) error {
	return db.store.ReplaceImage(img, follow(at, db.reload(true)))
}

// NodeState returns the node's durable replication record (see
// dmsii.NodeState).
func (db *Database) NodeState() (dmsii.NodeState, error) {
	return db.store.NodeState()
}

// SetNodeState durably replaces the node's replication record, as one
// commit of the meta page.
func (db *Database) SetNodeState(st dmsii.NodeState) error {
	tx, err := db.store.Begin()
	if err != nil {
		return err
	}
	if err := tx.SetNodeState(st); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// follow is the prepare step of a replicated commit: it moves the record's
// followed position to at, keeping the node's terms, then runs next.
func follow(at dmsii.Position, next func(*dmsii.Txn) error) func(*dmsii.Txn) error {
	return func(tx *dmsii.Txn) error {
		st, err := tx.NodeState()
		if err != nil {
			return err
		}
		st.Follow = at
		if err := tx.SetNodeState(st); err != nil {
			return err
		}
		return next(tx)
	}
}

// reload is the prepare step of a replicated commit (see
// dmsii.Store.ApplyReplicated): under the write latch, with the shipped
// pages in place, it builds the generation of the "~schema" batches they
// hold and has the commit publish it just before its stamp, so no reader
// pins the shipped pages under an older schema. A snapshot install
// (replace) publishes the image's schema whatever it holds; a group only
// one that grew past the published generation's batches.
func (db *Database) reload(replace bool) func(*dmsii.Txn) error {
	return func(tx *dmsii.Txn) error {
		// Every shipped state has the structure (a database creates it when
		// it opens), so opening it here never allocates.
		st, err := db.store.Structure("~schema")
		if err != nil {
			return err
		}
		if _, grew, err := st.Get(batchKey(len(db.gen.Load().ddl))); err != nil || !grew && !replace {
			return err
		}
		g, err := db.load()
		if err != nil {
			return err
		}
		if replace {
			tx.OnPublish(func() { db.gen.Store(g) })
		} else {
			tx.OnPublish(func() { db.publish(g) })
		}
		return nil
	}
}
