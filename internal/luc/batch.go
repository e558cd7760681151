package luc

import (
	"sim/internal/catalog"
	"sim/internal/value"
)

// Rec is a read-only handle on one entity's decoded record, handed to the
// executor so a binding's attribute references resolve against one
// decode instead of paying a cache probe (and its shard lock) per
// reference. The underlying record may be shared with the Mapper's read
// cache and concurrent queries (ReadBatch); one decoded off a scan cursor
// (EntityCursor.Rec) belongs to the query that scanned it. Either way it
// is immutable once handed out, and holders must never mutate what the
// accessors return.
//
// The zero Rec is invalid and reports no roles and only NULL values;
// callers fall back to the Mapper's per-entity read path when Valid is
// false (split-strategy hierarchies, vanished entities).
type Rec struct {
	r *record
}

// Valid reports whether the handle carries a decoded record.
func (rec Rec) Valid() bool { return rec.r != nil }

// HasRole reports whether the entity holds the role with the given class
// id. Meaningful only for classes of the hierarchy the record came from:
// surrogates (and so records) are per-hierarchy.
func (rec Rec) HasRole(id int) bool { return rec.r != nil && rec.r.hasRole(id) }

// Single reads a single-valued DVA (or FK EVA slot) with GetSingle's
// uniform null treatment: NULL when unset, when the entity lacks the
// owning role, and on an invalid handle.
func (rec Rec) Single(a *catalog.Attribute) value.Value {
	if rec.r == nil || !rec.r.hasRole(a.Owner.ID) {
		return value.Null
	}
	return rec.r.get(a.ID)
}

// FirstSubrole returns the first subrole name (in SubroleOf declaration
// order) the entity currently holds, or NULL — the value an attribute
// reference to a subrole attribute reads.
func (rec Rec) FirstSubrole(a *catalog.Attribute) value.Value {
	if rec.r == nil {
		return value.Null
	}
	for ord, sub := range a.SubroleOf {
		if rec.r.hasRole(sub.ID) {
			return value.NewSymbolic(sub.Name, ord)
		}
	}
	return value.Null
}

// AppendSubroles appends every subrole name the entity holds, in
// declaration order — Subrole without the per-call allocation.
func (rec Rec) AppendSubroles(dst []value.Value, a *catalog.Attribute) []value.Value {
	if rec.r == nil {
		return dst
	}
	for ord, sub := range a.SubroleOf {
		if rec.r.hasRole(sub.ID) {
			dst = append(dst, value.NewSymbolic(sub.Name, ord))
		}
	}
	return dst
}

// MultiRaw returns the embedded multiset of an MV DVA without copying.
// The slice aliases the shared record: READ ONLY. Only meaningful for
// embedded (non-separate) MV DVAs; separate-unit attributes live outside
// the record and read through Mapper.GetMV.
func (rec Rec) MultiRaw(a *catalog.Attribute) []value.Value {
	if rec.r == nil || !rec.r.hasRole(a.Owner.ID) {
		return nil
	}
	return rec.r.getMulti(a.ID)
}

// Batchable reports whether cl's hierarchy supports batched record reads:
// the single-record strategy, where one decode covers every role section.
func (m *Mapper) Batchable(cl *catalog.Class) bool {
	return m.hier[cl.Base] == HierarchySingleRecord
}

// recBatch is the fixed batch size executors use when prefetching records
// for a domain; exported so the bench harness can size workloads around it.
const recBatch = 256

// RecBatch is the batch size ReadBatch callers should chunk domains by.
func RecBatch() int { return recBatch }

// ReadBatch fills recs[i] with the decoded record of surrs[i], touching
// each cache shard once per batch instead of once per surrogate. Cache
// misses are loaded from storage and published for later readers. Like
// readRecord, the live mapper bypasses the cache. Entities
// with no record leave the zero (invalid) Rec in place. The hierarchy must
// be Batchable; recs must be at least as long as surrs.
func (m *Mapper) ReadBatch(cl *catalog.Class, surrs []value.Surrogate, recs []Rec) error {
	base := cl.Base
	stamp := m.readStamp()
	var hits, misses uint64
	// Pass 1: one read-locked sweep per shard resolves every cached entry
	// decoded at this reader's stamp.
	for shard := uint64(0); m.snap != nil && shard < rcShards; shard++ {
		sh := &m.rc.shards[shard]
		locked := false
		for i, s := range surrs {
			if uint64(s)%rcShards != shard {
				continue
			}
			if !locked {
				sh.mu.RLock()
				locked = true
			}
			if e, ok := sh.m[rcKey{base.ID, s}]; ok && e.stamp == stamp && e.rec != nil {
				recs[i] = Rec{e.rec}
				hits++
			}
		}
		if locked {
			sh.mu.RUnlock()
		}
	}
	// Pass 2: load the misses (these pay storage reads regardless) and —
	// for snapshot views only — publish them for the next batch.
	for i, s := range surrs {
		if recs[i].r != nil {
			continue
		}
		r, err := m.loadRecord(base, s)
		if err != nil {
			return err
		}
		misses++
		if r == nil {
			continue
		}
		recs[i] = Rec{r}
		if m.snap == nil {
			continue
		}
		sh := m.rc.shardOf(s)
		sh.mu.Lock()
		if len(sh.m) >= rcacheCap/rcShards {
			sh.m = make(map[rcKey]rcEntry, rcacheCap/rcShards)
		}
		sh.m[rcKey{base.ID, s}] = rcEntry{rec: r, stamp: stamp}
		sh.mu.Unlock()
	}
	m.rc.hits.Add(hits)
	m.rc.misses.Add(misses)
	return nil
}
