package luc

import (
	"sim/internal/catalog"
	"sim/internal/value"
)

// Rec is a read-only handle on one entity's decoded record, handed to the
// executor so a binding's attribute references resolve against one
// decode instead of paying a record read per reference. The underlying
// record may be shared through a read view's memo with the view's
// concurrent queries (ReadBatch); one decoded off a scan cursor
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

// ReadBatch fills recs[i] with the decoded record of surrs[i] in one
// pass: each record comes from the view's memo, else from storage, filling
// the memo for later readers. The live mapper has no memo and always
// decodes. Entities with no record get the zero (invalid) Rec. The
// hierarchy must be Batchable; recs must be at least as long as surrs.
func (m *Mapper) ReadBatch(cl *catalog.Class, surrs []value.Surrogate, recs []Rec) error {
	var hits uint64
	for i, s := range surrs {
		r, hit, err := m.memoRead(cl.Base, s)
		if err != nil {
			return err
		}
		if hit {
			hits++
		}
		recs[i] = Rec{r}
	}
	m.reads.hits.Add(hits)
	m.reads.misses.Add(uint64(len(surrs)) - hits)
	return nil
}
