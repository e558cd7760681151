package luc

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"sim/internal/catalog"
	"sim/internal/value"
)

// record is the in-memory form of one entity's stored state within a
// hierarchy: the set of role class ids plus the slot values of each role's
// section. It is the Mapper's "variable-format record" (§5.2): the format
// of the encoded record varies with the role set.
//
// Slot values are kept as small (attribute id, value) slices rather than
// maps: a record holds a handful of slots, a linear scan over them beats a
// hash probe, and a decode sizes each slice once from its role sections
// instead of allocating two maps per record. Only set slots are present —
// no NULL single slot and no empty multiset — so a record's contents are
// a function of what it encodes. Decoded records list their slots in
// section order; set appends a slot it adds at the end. Encoding walks the
// role sections, never these slices, so their order is not part of the
// format.
type record struct {
	roles  []int       // sorted class ids
	single []singleVal // single DVAs and FK EVAs, non-NULL only
	multi  []multiVal  // embedded MV DVAs, non-empty only
}

type singleVal struct {
	attr int
	v    value.Value
}

type multiVal struct {
	attr int
	vals []value.Value
}

// get returns the single slot of attribute id, NULL when unset.
func (r *record) get(id int) value.Value {
	for i := range r.single {
		if r.single[i].attr == id {
			return r.single[i].v
		}
	}
	return value.Null
}

// set stores v in the single slot of attribute id; NULL unsets it.
func (r *record) set(id int, v value.Value) {
	for i := range r.single {
		if r.single[i].attr == id {
			if v.IsNull() {
				r.single = append(r.single[:i], r.single[i+1:]...)
			} else {
				r.single[i].v = v
			}
			return
		}
	}
	if !v.IsNull() {
		r.single = append(r.single, singleVal{id, v})
	}
}

// getMulti returns the embedded multiset of attribute id (nil when empty),
// aliasing the record.
func (r *record) getMulti(id int) []value.Value {
	for i := range r.multi {
		if r.multi[i].attr == id {
			return r.multi[i].vals
		}
	}
	return nil
}

// setMulti stores vals (not copied) as the embedded multiset of attribute
// id; an empty vals unsets it.
func (r *record) setMulti(id int, vals []value.Value) {
	for i := range r.multi {
		if r.multi[i].attr == id {
			if len(vals) == 0 {
				r.multi = append(r.multi[:i], r.multi[i+1:]...)
			} else {
				r.multi[i].vals = vals
			}
			return
		}
	}
	if len(vals) > 0 {
		r.multi = append(r.multi, multiVal{id, vals})
	}
}

func (r *record) hasRole(id int) bool {
	for _, rid := range r.roles {
		if rid == id {
			return true
		}
	}
	return false
}

func (r *record) addRole(id int) {
	if r.hasRole(id) {
		return
	}
	r.roles = append(r.roles, id)
	sort.Ints(r.roles)
}

func (r *record) removeRole(id int) {
	for i, rid := range r.roles {
		if rid == id {
			r.roles = append(r.roles[:i], r.roles[i+1:]...)
			return
		}
	}
}

// encodeSection appends the slot values of one class section.
func (m *Mapper) encodeSection(dst []byte, cl *catalog.Class, r *record) []byte {
	for _, s := range m.slots[cl.ID] {
		switch s.kind {
		case slotSingle, slotFK:
			dst = value.Append(dst, r.get(s.attr.ID))
		case slotMulti:
			vals := r.getMulti(s.attr.ID)
			dst = binary.AppendUvarint(dst, uint64(len(vals)))
			for _, v := range vals {
				dst = value.Append(dst, v)
			}
		}
	}
	return dst
}

// decodeSection appends the set slots of one class section to r.
func (m *Mapper) decodeSection(b []byte, cl *catalog.Class, r *record) ([]byte, error) {
	var err error
	for _, s := range m.slots[cl.ID] {
		switch s.kind {
		case slotSingle, slotFK:
			var v value.Value
			v, b, err = value.Decode(b)
			if err != nil {
				return nil, fmt.Errorf("luc: record of %s, attr %s: %w", cl.Name, s.attr.Name, err)
			}
			if !v.IsNull() {
				r.single = append(r.single, singleVal{s.attr.ID, v})
			}
		case slotMulti:
			n, used := binary.Uvarint(b)
			// Every encoded value takes at least one byte, so a count
			// beyond the bytes left is corrupt, not a reason to allocate.
			if used <= 0 || n > uint64(len(b)-used) {
				return nil, fmt.Errorf("luc: record of %s, attr %s: bad count", cl.Name, s.attr.Name)
			}
			b = b[used:]
			if n == 0 {
				continue
			}
			vals := make([]value.Value, n)
			for i := range vals {
				vals[i], b, err = value.Decode(b)
				if err != nil {
					return nil, fmt.Errorf("luc: record of %s, attr %s[%d]: %w", cl.Name, s.attr.Name, i, err)
				}
			}
			r.multi = append(r.multi, multiVal{s.attr.ID, vals})
		}
	}
	return b, nil
}

// reserve sizes r's slot slices for the sections of the given class ids,
// so a decode allocates each slice once.
func (m *Mapper) reserve(r *record, ids ...int) {
	ns, nm := 0, 0
	for _, id := range ids {
		for _, s := range m.slots[id] {
			if s.kind == slotMulti {
				nm++
			} else {
				ns++
			}
		}
	}
	r.single = make([]singleVal, 0, ns)
	if nm > 0 {
		r.multi = make([]multiVal, 0, nm)
	}
}

// encodeRecord serializes a full single-record-strategy record:
// role count, role ids, then each role's section in ascending class id.
func (m *Mapper) encodeRecord(base *catalog.Class, r *record) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(r.roles)))
	for _, id := range r.roles {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	for _, id := range r.roles {
		dst = m.encodeSection(dst, m.classByID(id), r)
	}
	return dst
}

func (m *Mapper) decodeRecord(base *catalog.Class, b []byte) (*record, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > uint64(len(b)-used) {
		return nil, fmt.Errorf("luc: corrupt record header in hierarchy %s", base.Name)
	}
	b = b[used:]
	r := &record{roles: make([]int, n)}
	for i := range r.roles {
		id, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("luc: corrupt role list in hierarchy %s", base.Name)
		}
		b = b[used:]
		if m.classByID(int(id)) == nil {
			return nil, fmt.Errorf("luc: record names unknown class id %d", id)
		}
		r.roles[i] = int(id)
	}
	m.reserve(r, r.roles...)
	var err error
	for _, id := range r.roles {
		if b, err = m.decodeSection(b, m.classByID(id), r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (m *Mapper) classByID(id int) *catalog.Class {
	classes := m.cat.Classes()
	if id < 0 || id >= len(classes) {
		return nil
	}
	return classes[id]
}

// A read view's record memo has memoSlots slots in memoBuckets buckets.
const (
	memoSlots       = 1024
	memoBuckets     = 32
	memoBucketSlots = memoSlots / memoBuckets
)

// memo is a read view's decoded-record memo: a direct-mapped table of
// atomic slots keyed by (hierarchy id, surrogate). It holds one published
// stamp's state, which never changes, so an entry never goes stale; a
// colliding fill replaces the slot, and the memo is dropped once a view
// of another stamp has been built and its own stamp's views are gone.
// Memoized records are shared by the stamp's concurrent readers, which
// never mutate them. Buckets are allocated on first use: a view built
// for one read after a commit pays for the bucket it touches, not for
// the whole table.
type memo struct {
	stamp   uint64
	buckets [memoBuckets]atomic.Pointer[memoBucket]
}

type memoBucket [memoBucketSlots]atomic.Pointer[memoEntry]

type memoEntry struct {
	base int
	s    value.Surrogate
	rec  *record // nil: the entity has no record
}

// slot is where (base, s) lives. Consecutive surrogates of a hierarchy
// take consecutive slots; every hierarchy numbers its entities from 1, so
// each starts its run 633 slots (memoSlots over the golden ratio) past
// the previous hierarchy id's, keeping small hierarchies' runs apart.
func (mm *memo) slot(base int, s value.Surrogate) *atomic.Pointer[memoEntry] {
	i := (uint64(s) + 633*uint64(base)) % memoSlots
	bp := &mm.buckets[i/memoBucketSlots]
	b := bp.Load()
	if b == nil {
		bp.CompareAndSwap(nil, new(memoBucket))
		b = bp.Load()
	}
	return &b[i%memoBucketSlots]
}

// memoRead returns an entity's record from the view's memo, or decodes it
// with loadRecord and fills the memo; hit reports which. Without a memo —
// the live mapper and its write views, whose reads must see the
// transaction's own uncommitted writes — it always decodes.
func (m *Mapper) memoRead(base *catalog.Class, s value.Surrogate) (r *record, hit bool, err error) {
	if m.memo == nil {
		r, err = m.loadRecord(base, s)
		return r, false, err
	}
	sl := m.memo.slot(base.ID, s)
	if e := sl.Load(); e != nil && e.base == base.ID && e.s == s {
		return e.rec, true, nil
	}
	if r, err = m.loadRecord(base, s); err == nil {
		sl.Store(&memoEntry{base: base.ID, s: s, rec: r})
	}
	return r, false, err
}

// readRecord is the read-path variant of loadRecord: it goes through the
// view's memo and counts the read once, as a hit or a miss. The record
// may be shared with other readers and must never be mutated; mutators
// use loadRecord, which always decodes a fresh copy.
func (m *Mapper) readRecord(base *catalog.Class, s value.Surrogate) (*record, error) {
	r, hit, err := m.memoRead(base, s)
	if hit {
		m.reads.hits.Add(1)
	} else {
		m.reads.misses.Add(1)
	}
	return r, err
}

// readSection reads just one class's section of an entity (plus the
// surrounding record under the single-record strategy, where sections are
// not separable). found reports whether the entity holds the class's role.
func (m *Mapper) readSection(cl *catalog.Class, s value.Surrogate) (*record, bool, error) {
	if m.hier[cl.Base] == HierarchySingleRecord {
		r, err := m.readRecord(cl.Base, s)
		if err != nil || r == nil {
			return nil, false, err
		}
		return r, r.hasRole(cl.ID), nil
	}
	st, err := m.classStructure(cl)
	if err != nil {
		return nil, false, err
	}
	p := m.getProbe()
	defer m.putProbe(p)
	p.key = value.AppendSurrogateKey(p.key[:0], s)
	raw, found, err := st.GetAppend(p.val[:0], p.key)
	p.val = raw
	if err != nil || !found {
		return nil, false, err
	}
	r := &record{roles: []int{cl.ID}}
	m.reserve(r, cl.ID)
	if _, err := m.decodeSection(raw, cl, r); err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// loadRecord reads an entity's record. For the single-record strategy it
// decodes straight from a pooled probe cursor's one-cell snapshot (the
// decode copies every byte it keeps), so a load allocates nothing beyond
// the decoded record.
// For the split strategy it assembles the record from the per-class
// structures (each holding one section).
func (m *Mapper) loadRecord(base *catalog.Class, s value.Surrogate) (*record, error) {
	if m.hier[base] == HierarchySingleRecord {
		st, err := m.hierStructure(base)
		if err != nil {
			return nil, err
		}
		p := m.getProbe()
		defer m.putProbe(p)
		p.key = value.AppendSurrogateKey(p.key[:0], s)
		if err := st.SeekPrefixInto(&p.cur, p.key); err != nil {
			return nil, err
		}
		if !p.cur.Valid() {
			return nil, p.cur.Err()
		}
		return m.decodeRecord(base, p.cur.Value())
	}
	// Split strategy: probe each class structure of the hierarchy.
	p := m.getProbe()
	defer m.putProbe(p)
	p.key = value.AppendSurrogateKey(p.key[:0], s)
	r := &record{}
	for _, cl := range catalog.HierarchyClasses(base) {
		st, err := m.classStructure(cl)
		if err != nil {
			return nil, err
		}
		raw, found, err := st.GetAppend(p.val[:0], p.key)
		p.val = raw
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		r.roles = append(r.roles, cl.ID)
		if _, err := m.decodeSection(raw, cl, r); err != nil {
			return nil, err
		}
	}
	if len(r.roles) == 0 {
		return nil, nil
	}
	sort.Ints(r.roles)
	return r, nil
}

// storeRecord writes an entity's record. prevRoles lists the roles present
// before the update so the split strategy can delete abandoned sections.
func (m *Mapper) storeRecord(base *catalog.Class, s value.Surrogate, r *record, prevRoles []int) error {
	key := value.AppendSurrogateKey(nil, s)
	if m.hier[base] == HierarchySingleRecord {
		st, err := m.hierStructure(base)
		if err != nil {
			return err
		}
		if len(r.roles) == 0 {
			_, err := st.Delete(key)
			return err
		}
		return st.Put(key, m.encodeRecord(base, r))
	}
	for _, cl := range catalog.HierarchyClasses(base) {
		st, err := m.classStructure(cl)
		if err != nil {
			return err
		}
		if r.hasRole(cl.ID) {
			if err := st.Put(key, m.encodeSection(nil, cl, r)); err != nil {
				return err
			}
		} else {
			had := false
			for _, id := range prevRoles {
				if id == cl.ID {
					had = true
					break
				}
			}
			if had {
				if _, err := st.Delete(key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
