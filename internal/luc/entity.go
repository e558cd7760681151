package luc

import (
	"fmt"

	"sim/internal/catalog"
	"sim/internal/value"
)

// ErrNotFound reports an operation on a surrogate with no record.
var ErrNotFound = fmt.Errorf("luc: entity not found")

// UniqueError reports a UNIQUE option violation.
type UniqueError struct {
	Attr *catalog.Attribute
	Val  value.Value
}

func (e *UniqueError) Error() string {
	return fmt.Sprintf("unique attribute %s already has an entity with value %s", e.Attr, e.Val)
}

// CardinalityError reports a MAX option violation.
type CardinalityError struct {
	Attr *catalog.Attribute
	Max  int
}

func (e *CardinalityError) Error() string {
	return fmt.Sprintf("attribute %s cannot exceed %d values", e.Attr, e.Max)
}

// NewEntity creates an entity with roles cl plus all its ancestors and
// returns its fresh surrogate (§3.1: surrogates are system-maintained,
// unique, non-null and immutable).
func (m *Mapper) NewEntity(cl *catalog.Class) (value.Surrogate, error) {
	s, err := m.nextSurrogate(cl.Base)
	if err != nil {
		return 0, err
	}
	m.touch(cl.Base, s)
	r := &record{}
	r.addRole(cl.ID)
	for _, anc := range catalog.Ancestors(cl) {
		r.addRole(anc.ID)
	}
	if err := m.storeRecord(cl.Base, s, r, nil); err != nil {
		return 0, err
	}
	for _, id := range r.roles {
		if err := m.classAdd(m.cat.Classes()[id], 1); err != nil {
			return 0, err
		}
	}
	return s, nil
}

// ExtendRole adds role cl (and any missing ancestor roles) to an existing
// entity — the INSERT ... FROM operation of §4.8. It returns the set of
// classes actually added.
func (m *Mapper) ExtendRole(s value.Surrogate, cl *catalog.Class) ([]*catalog.Class, error) {
	m.touch(cl.Base, s)
	r, err := m.loadRecord(cl.Base, s)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, ErrNotFound
	}
	prev := append([]int(nil), r.roles...)
	var added []*catalog.Class
	add := func(c *catalog.Class) {
		if !r.hasRole(c.ID) {
			r.addRole(c.ID)
			added = append(added, c)
		}
	}
	add(cl)
	for _, anc := range catalog.Ancestors(cl) {
		add(anc)
	}
	if len(added) == 0 {
		return nil, nil
	}
	if err := m.storeRecord(cl.Base, s, r, prev); err != nil {
		return nil, err
	}
	for _, c := range added {
		if err := m.classAdd(c, 1); err != nil {
			return nil, err
		}
	}
	return added, nil
}

// HasRole reports whether the entity currently holds a role in cl.
func (m *Mapper) HasRole(s value.Surrogate, cl *catalog.Class) (bool, error) {
	_, found, err := m.readSection(cl, s)
	return found, err
}

// Roles returns the classes the entity participates in, ascending id.
func (m *Mapper) Roles(base *catalog.Class, s value.Surrogate) ([]*catalog.Class, error) {
	r, err := m.readRecord(base.Base, s)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, ErrNotFound
	}
	out := make([]*catalog.Class, 0, len(r.roles))
	for _, id := range r.roles {
		out = append(out, m.classByID(id))
	}
	return out, nil
}

// DeleteRoles removes the entity's role in cl and every descendant role,
// per §4.8: "When an entity is deleted, all its subclass roles will be
// deleted, while its superclass roles will remain unaffected." Deleting a
// base-class role removes the entity entirely. All EVA instances, index
// entries and dependent MV values of removed roles are cleaned up — the
// Mapper's structural-integrity duty (§5.1).
func (m *Mapper) DeleteRoles(s value.Surrogate, cl *catalog.Class) error {
	base := cl.Base
	m.touch(base, s)
	r, err := m.loadRecord(base, s)
	if err != nil {
		return err
	}
	if r == nil {
		return ErrNotFound
	}
	if !r.hasRole(cl.ID) {
		return fmt.Errorf("luc: entity #%d has no %s role", s, cl.Name)
	}
	doomed := []*catalog.Class{cl}
	for _, d := range catalog.Descendants(cl) {
		if r.hasRole(d.ID) {
			doomed = append(doomed, d)
		}
	}
	// Clean up relationship instances and index entries first; these
	// operations rewrite partner records (possibly this entity's own, for
	// reflexive EVAs), so the record is reloaded afterwards.
	for _, d := range doomed {
		if err := m.cleanupRole(s, d); err != nil {
			return err
		}
	}
	r, err = m.loadRecord(base, s)
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("luc: entity #%d vanished during role cleanup", s)
	}
	prev := append([]int(nil), r.roles...)
	for _, d := range doomed {
		r.removeRole(d.ID)
		for _, sl := range m.slots[d.ID] {
			r.set(sl.attr.ID, value.Null)
			r.setMulti(sl.attr.ID, nil)
		}
		if err := m.classAdd(d, -1); err != nil {
			return err
		}
	}
	return m.storeRecord(base, s, r, prev)
}

// cleanupRole removes every stored artifact of one role: EVA instances
// (synchronizing partners), unique/secondary index entries, and separate
// MV DVA rows.
func (m *Mapper) cleanupRole(s value.Surrogate, cl *catalog.Class) error {
	for _, a := range cl.Attrs {
		switch a.Kind {
		case catalog.EVA:
			targets, err := m.GetEVA(s, a)
			if err != nil {
				return err
			}
			for _, t := range targets {
				if err := m.removeEVAInstance(a, s, t); err != nil {
					return err
				}
			}
		case catalog.DVA:
			if a.Options.MV {
				if m.mvSep[a] {
					if err := m.clearSeparateMV(s, a); err != nil {
						return err
					}
				}
				continue
			}
			if m.idx[a] {
				old, err := m.GetSingle(s, a)
				if err != nil {
					return err
				}
				if !old.IsNull() {
					if err := m.indexRemove(a, old, s); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Single-valued DVAs
// ---------------------------------------------------------------------------

// GetSingle reads a single-valued DVA. It returns NULL when the value is
// unset, when the entity lacks the owning role, and when no such entity
// exists — the uniform null treatment the DML's role conversion relies on.
func (m *Mapper) GetSingle(s value.Surrogate, a *catalog.Attribute) (value.Value, error) {
	r, found, err := m.readSection(a.Owner, s)
	if err != nil || !found {
		return value.Null, err
	}
	return r.get(a.ID), nil
}

// SetSingle writes a single-valued DVA, maintaining any index and
// enforcing UNIQUE (§3.2.1; nulls are exempt from uniqueness).
func (m *Mapper) SetSingle(s value.Surrogate, a *catalog.Attribute, v value.Value) error {
	if a.Kind != catalog.DVA || a.Options.MV {
		return fmt.Errorf("luc: SetSingle on %s (%v, mv=%v)", a, a.Kind, a.Options.MV)
	}
	base := a.Owner.Base
	m.touch(base, s)
	r, err := m.loadRecord(base, s)
	if err != nil {
		return err
	}
	if r == nil {
		return ErrNotFound
	}
	if !r.hasRole(a.Owner.ID) {
		return fmt.Errorf("luc: entity #%d has no %s role for attribute %s", s, a.Owner.Name, a.Name)
	}
	old := r.get(a.ID)
	if old.Equal(v) {
		return nil
	}
	if m.idx[a] {
		if a.Options.Unique && !v.IsNull() {
			other, found, err := m.LookupUnique(a, v)
			if err != nil {
				return err
			}
			if found && other != s {
				return &UniqueError{Attr: a, Val: v}
			}
		}
		if !old.IsNull() {
			if err := m.indexRemove(a, old, s); err != nil {
				return err
			}
		}
		if !v.IsNull() {
			if err := m.indexInsert(a, v, s); err != nil {
				return err
			}
		}
	}
	r.set(a.ID, v)
	return m.storeRecord(base, s, r, r.roles)
}

// ---------------------------------------------------------------------------
// Multi-valued DVAs
// ---------------------------------------------------------------------------

// GetMV reads the multiset of values of an MV DVA (empty for entities
// without the owning role).
func (m *Mapper) GetMV(s value.Surrogate, a *catalog.Attribute) ([]value.Value, error) {
	if m.mvSep[a] {
		return m.readSeparateMV(s, a)
	}
	r, found, err := m.readSection(a.Owner, s)
	if err != nil || !found {
		return nil, err
	}
	return append([]value.Value(nil), r.getMulti(a.ID)...), nil
}

// SetMV replaces the whole multiset.
func (m *Mapper) SetMV(s value.Surrogate, a *catalog.Attribute, vals []value.Value) error {
	if err := m.checkMVConstraints(a, vals); err != nil {
		return err
	}
	m.touch(a.Owner.Base, s)
	if m.mvSep[a] {
		if err := m.clearSeparateMV(s, a); err != nil {
			return err
		}
		for _, v := range vals {
			if err := m.appendSeparateMV(s, a, v); err != nil {
				return err
			}
		}
		return nil
	}
	base := a.Owner.Base
	r, err := m.loadRecord(base, s)
	if err != nil {
		return err
	}
	if r == nil {
		return ErrNotFound
	}
	r.setMulti(a.ID, append([]value.Value(nil), vals...))
	return m.storeRecord(base, s, r, r.roles)
}

// IncludeMV adds one value to an MV DVA, enforcing DISTINCT and MAX.
func (m *Mapper) IncludeMV(s value.Surrogate, a *catalog.Attribute, v value.Value) error {
	m.touch(a.Owner.Base, s)
	cur, err := m.GetMV(s, a)
	if err != nil {
		return err
	}
	if a.Options.Distinct {
		for _, x := range cur {
			if x.Equal(v) {
				return nil // set semantics: silently idempotent
			}
		}
	}
	if a.Options.Max > 0 && len(cur) >= a.Options.Max {
		return &CardinalityError{Attr: a, Max: a.Options.Max}
	}
	if m.mvSep[a] {
		return m.appendSeparateMV(s, a, v)
	}
	return m.SetMV(s, a, append(cur, v))
}

// ExcludeMV removes one occurrence of v (all occurrences when the
// attribute is DISTINCT, where at most one exists).
func (m *Mapper) ExcludeMV(s value.Surrogate, a *catalog.Attribute, v value.Value) error {
	cur, err := m.GetMV(s, a)
	if err != nil {
		return err
	}
	out := cur[:0]
	removed := false
	for _, x := range cur {
		if !removed && x.Equal(v) {
			removed = true
			continue
		}
		out = append(out, x)
	}
	if !removed {
		return nil
	}
	return m.SetMV(s, a, out)
}

func (m *Mapper) checkMVConstraints(a *catalog.Attribute, vals []value.Value) error {
	if a.Options.Max > 0 && len(vals) > a.Options.Max {
		return &CardinalityError{Attr: a, Max: a.Options.Max}
	}
	if a.Options.Distinct {
		for i := range vals {
			for j := i + 1; j < len(vals); j++ {
				if vals[i].Equal(vals[j]) {
					return fmt.Errorf("distinct attribute %s given duplicate value %s", a, vals[i])
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Subroles
// ---------------------------------------------------------------------------

// Subrole reads a system-maintained subrole attribute (§3.2): the symbolic
// names of the enumerated subclasses the entity currently participates in.
func (m *Mapper) Subrole(s value.Surrogate, a *catalog.Attribute) ([]value.Value, error) {
	if a.Kind != catalog.Subrole {
		return nil, fmt.Errorf("luc: %s is not a subrole attribute", a)
	}
	var out []value.Value
	if m.hier[a.Owner.Base] == HierarchySingleRecord {
		r, err := m.readRecord(a.Owner.Base, s)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return nil, ErrNotFound
		}
		for ord, sub := range a.SubroleOf {
			if r.hasRole(sub.ID) {
				out = append(out, value.NewSymbolic(sub.Name, ord))
			}
		}
		return out, nil
	}
	for ord, sub := range a.SubroleOf {
		ok, err := m.HasRole(s, sub)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, value.NewSymbolic(sub.Name, ord))
		}
	}
	return out, nil
}
