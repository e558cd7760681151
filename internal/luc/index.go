package luc

import (
	"bytes"

	"sim/internal/catalog"
	"sim/internal/value"
)

// Secondary indexes map <value-key, owner-surrogate> rows; UNIQUE
// attributes always have one (it enforces the option and serves point
// lookups), and Config.Indexes adds optimizer-selectable indexes on other
// single-valued DVAs ("indexes … are some of the optimization parameters
// used", §5.1).

func (m *Mapper) indexInsert(a *catalog.Attribute, v value.Value, s value.Surrogate) error {
	st, err := m.indexStructure(a)
	if err != nil {
		return err
	}
	key := value.AppendKey(nil, v)
	key = value.AppendSurrogateKey(key, s)
	return st.Put(key, nil)
}

func (m *Mapper) indexRemove(a *catalog.Attribute, v value.Value, s value.Surrogate) error {
	st, err := m.indexStructure(a)
	if err != nil {
		return err
	}
	key := value.AppendKey(nil, v)
	key = value.AppendSurrogateKey(key, s)
	_, err = st.Delete(key)
	return err
}

// LookupUnique finds the entity holding value v in unique attribute a.
func (m *Mapper) LookupUnique(a *catalog.Attribute, v value.Value) (value.Surrogate, bool, error) {
	st, err := m.indexStructure(a)
	if err != nil {
		return 0, false, err
	}
	p := m.getProbe()
	defer m.putProbe(p)
	p.key = value.AppendKey(p.key[:0], v)
	if err := st.SeekPrefixInto(&p.cur, p.key); err != nil {
		return 0, false, err
	}
	if !p.cur.Valid() {
		return 0, false, p.cur.Err()
	}
	key := p.cur.Key()
	return value.SurrogateFromKey(key[len(key)-8:]), true, nil
}

// Bound describes one end of an index range; nil Value means unbounded.
type Bound struct {
	Value     value.Value
	Inclusive bool
	Set       bool
}

// IndexCountApprox counts the index entries of a within [lo, hi],
// stopping at limit: the optimizer's bounded selectivity probe (the paper
// notes "statistical optimization is not fully implemented yet"; probing
// the index bounds the estimation cost while being exact for selective
// predicates).
func (m *Mapper) IndexCountApprox(a *catalog.Attribute, lo, hi Bound, limit int) (n int, capped bool, err error) {
	err = m.indexRange(a, lo, hi, func(value.Surrogate) bool {
		n++
		capped = n >= limit
		return !capped
	})
	return n, capped, err
}

// IndexScan returns the surrogates whose indexed value of a lies within
// [lo, hi], in value order.
func (m *Mapper) IndexScan(a *catalog.Attribute, lo, hi Bound) ([]value.Surrogate, error) {
	var out []value.Surrogate
	err := m.indexRange(a, lo, hi, func(s value.Surrogate) bool {
		out = append(out, s)
		return true
	})
	return out, err
}

// indexRange calls yield with the owner of each index entry of a within
// [lo, hi], in value order, until yield returns false. A set hi bounds
// the cursor's leaf snapshots too: value.AppendKey encodings are
// prefix-free, so an entry whose value sorts above hi already has a first
// len(hiKey) bytes above hiKey, and the cursor never copies it. The loop
// still applies each end's own inclusive/exclusive test.
func (m *Mapper) indexRange(a *catalog.Attribute, lo, hi Bound, yield func(value.Surrogate) bool) error {
	st, err := m.indexStructure(a)
	if err != nil {
		return err
	}
	p := m.getProbe()
	defer m.putProbe(p)
	p.key = p.key[:0]
	if lo.Set {
		p.key = value.AppendKey(p.key, lo.Value)
	}
	n := len(p.key)
	if hi.Set {
		p.key = value.AppendKey(p.key, hi.Value)
	}
	start := p.key[:n:n]
	var hiKey []byte // nil: no upper bound
	if hi.Set {
		hiKey = p.key[n:]
	}
	if err := st.SeekRangeInto(&p.cur, start, hiKey); err != nil {
		return err
	}
	for c := &p.cur; c.Valid(); c.Next() {
		key := c.Key()
		part := key[:len(key)-8]
		if lo.Set && !lo.Inclusive && bytes.Equal(part, start) {
			continue
		}
		if hi.Set {
			cmp := bytes.Compare(part, hiKey)
			if cmp > 0 || (cmp == 0 && !hi.Inclusive) {
				break
			}
		}
		// Keys below the lower bound cannot appear (the seek started
		// there), and NULL entries are never indexed.
		if !yield(value.SurrogateFromKey(key[len(key)-8:])) {
			break
		}
	}
	return p.cur.Err()
}
