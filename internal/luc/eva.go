package luc

import (
	"encoding/binary"
	"fmt"

	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/value"
)

// EVA instances. SIM "automatically maintains the inverse of every declared
// EVA and guarantees that an EVA and its inverse will stay synchronized at
// all times" (§3.2); that guarantee lives here. Depending on the resolved
// mapping, an instance (s, t) of the pair containing attribute a is stored
// as:
//
//   - foreign keys in the partner records (1:1, or the single-valued side
//     of a pair forced to EVAForeignKey, plus a target→holder index for
//     traversal from the multi-valued side), or
//   - two rows in the Common EVA Structure keyed
//     <rel-id, direction, from-surrogate, to-surrogate>, or
//   - two rows of the same shape in the pair's private structure.

// dirOf is 0 when traversing from the canonical side, 1 from the inverse.
func dirOf(a *catalog.Attribute) byte {
	if canonical(a) == a {
		return 0
	}
	return 1
}

// cesKey builds the row key for a traversal row of pair can.
func cesKey(shared bool, can *catalog.Attribute, dir byte, from, to value.Surrogate) []byte {
	var key []byte
	if shared {
		key = binary.BigEndian.AppendUint32(nil, uint32(can.ID))
	}
	key = append(key, dir)
	key = value.AppendSurrogateKey(key, from)
	key = value.AppendSurrogateKey(key, to)
	return key
}

// appendCESPrefix appends the scan prefix for all partners of from in
// direction dir to dst.
func appendCESPrefix(dst []byte, shared bool, can *catalog.Attribute, dir byte, from value.Surrogate) []byte {
	if shared {
		dst = binary.BigEndian.AppendUint32(dst, uint32(can.ID))
	}
	dst = append(dst, dir)
	return value.AppendSurrogateKey(dst, from)
}

func (m *Mapper) evaRows(a *catalog.Attribute) (*dmsii.Structure, bool, error) {
	can := canonical(a)
	switch m.evas[can] {
	case evaCES:
		st, err := m.cesStructure()
		return st, true, err
	case evaOwn:
		st, err := m.ownEVAStructure(can)
		return st, false, err
	}
	return nil, false, fmt.Errorf("luc: %s is foreign-key mapped, not row mapped", a)
}

// GetEVA returns the surrogates related to s through attribute a, in
// ascending surrogate order (the DML's implicit perspective ordering).
func (m *Mapper) GetEVA(s value.Surrogate, a *catalog.Attribute) ([]value.Surrogate, error) {
	return m.GetEVAInto(nil, s, a)
}

// GetEVAInto is GetEVA appending into dst, so hot query loops can reuse
// one partner buffer across bindings instead of allocating per call.
func (m *Mapper) GetEVAInto(dst []value.Surrogate, s value.Surrogate, a *catalog.Attribute) ([]value.Surrogate, error) {
	can := canonical(a)
	switch m.evas[can] {
	case evaFK:
		if m.isFKHolder(a) {
			v, err := m.getFKSlot(s, a)
			if err != nil {
				return dst, err
			}
			if v.IsNull() {
				return dst, nil
			}
			return append(dst, v.Surrogate()), nil
		}
		// Multi-valued side of an FK-mapped pair: use the target→holder
		// index (§5.2's "additional index structure").
		st, err := m.fkIndexStructure(can)
		if err != nil {
			return dst, err
		}
		p := m.getProbe()
		defer m.putProbe(p)
		p.key = value.AppendSurrogateKey(p.key[:0], s)
		if err := st.SeekPrefixInto(&p.cur, p.key); err != nil {
			return dst, err
		}
		for c := &p.cur; c.Valid(); c.Next() {
			dst = append(dst, value.SurrogateFromKey(c.Key()[8:]))
		}
		return dst, p.cur.Err()
	default:
		st, shared, err := m.evaRows(a)
		if err != nil {
			return dst, err
		}
		p := m.getProbe()
		defer m.putProbe(p)
		p.key = appendCESPrefix(p.key[:0], shared, can, dirOf(a), s)
		if err := st.SeekPrefixInto(&p.cur, p.key); err != nil {
			return dst, err
		}
		for c := &p.cur; c.Valid(); c.Next() {
			key := c.Key()
			dst = append(dst, value.SurrogateFromKey(key[len(key)-8:]))
		}
		return dst, p.cur.Err()
	}
}

// FKHolder reports whether a reads as a foreign-key slot in s's own record
// (the single-valued side of an FK-mapped pair), letting the executor
// resolve the partner from an already-decoded record with no extra probe.
func (m *Mapper) FKHolder(a *catalog.Attribute) bool {
	return m.evas[canonical(a)] == evaFK && m.isFKHolder(a)
}

// HasEVAInstance reports whether the instance (s, t) of a's pair exists.
func (m *Mapper) HasEVAInstance(a *catalog.Attribute, s, t value.Surrogate) (bool, error) {
	can := canonical(a)
	switch m.evas[can] {
	case evaFK:
		if m.isFKHolder(a) {
			v, err := m.getFKSlot(s, a)
			if err != nil {
				return false, err
			}
			return !v.IsNull() && v.Surrogate() == t, nil
		}
		v, err := m.getFKSlot(t, a.Inverse)
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.Surrogate() == s, nil
	default:
		st, shared, err := m.evaRows(a)
		if err != nil {
			return false, err
		}
		_, found, err := st.Get(cesKey(shared, can, dirOf(a), s, t))
		return found, err
	}
}

func (m *Mapper) getFKSlot(s value.Surrogate, a *catalog.Attribute) (value.Value, error) {
	r, found, err := m.readSection(a.Owner, s)
	if err != nil || !found {
		return value.Null, err
	}
	return r.get(a.ID), nil
}

func (m *Mapper) setFKSlot(s value.Surrogate, a *catalog.Attribute, v value.Value) error {
	base := a.Owner.Base
	r, err := m.loadRecord(base, s)
	if err != nil {
		return err
	}
	if r == nil {
		return ErrNotFound
	}
	r.set(a.ID, v)
	return m.storeRecord(base, s, r, r.roles)
}

// IncludeEVA establishes the instance (s, t) of attribute a, enforcing the
// structural properties of §3.2.1: a single-valued side is replaced, a
// single-valued inverse steals t from its previous partner, and MAX
// cardinalities are enforced on both sides.
func (m *Mapper) IncludeEVA(s value.Surrogate, a *catalog.Attribute, t value.Surrogate) error {
	inv := a.Inverse
	// Role integrity: both partners must hold the required roles.
	if ok, err := m.HasRole(s, a.Owner); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("entity #%d has no %s role for attribute %s", s, a.Owner.Name, a.Name)
	}
	if ok, err := m.HasRole(t, a.Range); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("entity #%d has no %s role (range of %s)", t, a.Range.Name, a.Name)
	}
	if exists, err := m.HasEVAInstance(a, s, t); err != nil {
		return err
	} else if exists {
		return nil // EVAs are distinct: the instance already holds
	}
	// Single-valued sides displace existing partners.
	if !a.Options.MV {
		cur, err := m.GetEVA(s, a)
		if err != nil {
			return err
		}
		for _, old := range cur {
			if err := m.removeEVAInstance(a, s, old); err != nil {
				return err
			}
		}
	}
	if !inv.Options.MV && !(inv == a && !a.Options.MV) {
		cur, err := m.GetEVA(t, inv)
		if err != nil {
			return err
		}
		for _, old := range cur {
			if err := m.removeEVAInstance(inv, t, old); err != nil {
				return err
			}
		}
	}
	// Self-inverse single-valued (spouse): t's side also displaces.
	if inv == a && !a.Options.MV && s != t {
		cur, err := m.GetEVA(t, a)
		if err != nil {
			return err
		}
		for _, old := range cur {
			if err := m.removeEVAInstance(a, t, old); err != nil {
				return err
			}
		}
	}
	// MAX cardinality on both sides (after displacement).
	if a.Options.Max > 0 {
		cur, err := m.GetEVA(s, a)
		if err != nil {
			return err
		}
		if len(cur) >= a.Options.Max {
			return &CardinalityError{Attr: a, Max: a.Options.Max}
		}
	}
	if inv.Options.Max > 0 && inv != a {
		cur, err := m.GetEVA(t, inv)
		if err != nil {
			return err
		}
		if len(cur) >= inv.Options.Max {
			return &CardinalityError{Attr: inv, Max: inv.Options.Max}
		}
	}
	return m.addEVAInstance(a, s, t)
}

// ExcludeEVA removes the instance (s, t) if present.
func (m *Mapper) ExcludeEVA(s value.Surrogate, a *catalog.Attribute, t value.Surrogate) error {
	exists, err := m.HasEVAInstance(a, s, t)
	if err != nil {
		return err
	}
	if !exists {
		return nil
	}
	return m.removeEVAInstance(a, s, t)
}

// SetEVA assigns a single-valued EVA: replace the current partner with t,
// or clear it when t is nil.
func (m *Mapper) SetEVA(s value.Surrogate, a *catalog.Attribute, t *value.Surrogate) error {
	if a.Options.MV {
		return fmt.Errorf("luc: SetEVA on multi-valued %s; use Include/Exclude", a)
	}
	if t == nil {
		cur, err := m.GetEVA(s, a)
		if err != nil {
			return err
		}
		for _, old := range cur {
			if err := m.removeEVAInstance(a, s, old); err != nil {
				return err
			}
		}
		return nil
	}
	return m.IncludeEVA(s, a, *t)
}

// addEVAInstance stores (s, t) for attribute a without integrity checks.
func (m *Mapper) addEVAInstance(a *catalog.Attribute, s, t value.Surrogate) error {
	m.touchEVA(a, s, t)
	can := canonical(a)
	inv := a.Inverse
	switch m.evas[can] {
	case evaFK:
		if inv == a { // self-inverse: both records point at each other
			if err := m.setFKSlot(s, a, value.NewSurrogate(t)); err != nil {
				return err
			}
			if s != t {
				if err := m.setFKSlot(t, a, value.NewSurrogate(s)); err != nil {
					return err
				}
			}
		} else {
			for _, h := range fkHolders(can) {
				holder, target := s, t
				if h != a {
					holder, target = t, s
				}
				if err := m.setFKSlot(holder, h, value.NewSurrogate(target)); err != nil {
					return err
				}
			}
			// Multi-valued side traversal index, when one side is MV.
			if can.Options.MV != can.Inverse.Options.MV {
				st, err := m.fkIndexStructure(can)
				if err != nil {
					return err
				}
				holderAttr := fkHolders(can)[0]
				holder, target := s, t
				if holderAttr != a {
					holder, target = t, s
				}
				key := value.AppendSurrogateKey(nil, target)
				key = value.AppendSurrogateKey(key, holder)
				if err := st.Put(key, nil); err != nil {
					return err
				}
			}
		}
	default:
		st, shared, err := m.evaRows(a)
		if err != nil {
			return err
		}
		if err := st.Put(cesKey(shared, can, dirOf(a), s, t), nil); err != nil {
			return err
		}
		if !(inv == a && s == t) {
			if err := st.Put(cesKey(shared, can, dirOf(inv), t, s), nil); err != nil {
				return err
			}
		}
	}
	return m.statAdd(m.attrNames[can].count, 1)
}

// removeEVAInstance deletes the stored instance (s, t) of attribute a.
func (m *Mapper) removeEVAInstance(a *catalog.Attribute, s, t value.Surrogate) error {
	m.touchEVA(a, s, t)
	can := canonical(a)
	inv := a.Inverse
	switch m.evas[can] {
	case evaFK:
		if inv == a {
			if err := m.setFKSlot(s, a, value.Null); err != nil {
				return err
			}
			if s != t {
				if err := m.setFKSlot(t, a, value.Null); err != nil {
					return err
				}
			}
		} else {
			for _, h := range fkHolders(can) {
				holder := s
				if h != a {
					holder = t
				}
				if err := m.setFKSlot(holder, h, value.Null); err != nil {
					return err
				}
			}
			if can.Options.MV != can.Inverse.Options.MV {
				st, err := m.fkIndexStructure(can)
				if err != nil {
					return err
				}
				holderAttr := fkHolders(can)[0]
				holder, target := s, t
				if holderAttr != a {
					holder, target = t, s
				}
				key := value.AppendSurrogateKey(nil, target)
				key = value.AppendSurrogateKey(key, holder)
				if _, err := st.Delete(key); err != nil {
					return err
				}
			}
		}
	default:
		st, shared, err := m.evaRows(a)
		if err != nil {
			return err
		}
		if _, err := st.Delete(cesKey(shared, can, dirOf(a), s, t)); err != nil {
			return err
		}
		if !(inv == a && s == t) {
			if _, err := st.Delete(cesKey(shared, can, dirOf(inv), t, s)); err != nil {
				return err
			}
		}
	}
	return m.statAdd(m.attrNames[can].count, -1)
}
