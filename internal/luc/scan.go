package luc

import (
	"encoding/binary"
	"fmt"

	"sim/internal/btree"
	"sim/internal/catalog"
	"sim/internal/value"
)

// EntityCursor iterates the surrogates of every entity holding a role in
// one class, in ascending surrogate order — the LUC cursor of §5.1
// ("a cursor can be opened on a LUC … it delivers one record of the LUC at
// a time").
type EntityCursor struct {
	c      *btree.Cursor
	m      *Mapper
	base   *catalog.Class // hierarchy whose full records the cursor walks; nil under the split strategy
	filter int            // class id to require in the role list; -1 = none
	err    error
}

// Scan opens a cursor over the entities of cl.
func (m *Mapper) Scan(cl *catalog.Class) (*EntityCursor, error) {
	if m.hier[cl.Base] == HierarchySplit {
		st, err := m.classStructure(cl)
		if err != nil {
			return nil, err
		}
		c, err := st.First()
		if err != nil {
			return nil, err
		}
		return &EntityCursor{c: c, m: m, filter: -1}, nil
	}
	st, err := m.hierStructure(cl.Base)
	if err != nil {
		return nil, err
	}
	c, err := st.First()
	if err != nil {
		return nil, err
	}
	ec := &EntityCursor{c: c, m: m, base: cl.Base, filter: cl.ID}
	if cl.IsBase() {
		ec.filter = -1 // every record in the hierarchy has the base role
	}
	ec.skipNonMembers()
	return ec, nil
}

// Valid reports whether the cursor is on an entity.
func (e *EntityCursor) Valid() bool { return e.err == nil && e.c.Valid() }

// Err returns the first iteration error.
func (e *EntityCursor) Err() error {
	if e.err != nil {
		return e.err
	}
	return e.c.Err()
}

// Surrogate returns the current entity.
func (e *EntityCursor) Surrogate() value.Surrogate {
	return value.SurrogateFromKey(e.c.Key())
}

// Rec decodes the current entity's record from the cell the cursor is
// already on: a full scan pays no second B+tree descent per entity, and
// its records bypass the read view's record memo, which keeps the
// point-probe working set instead of one pass's worth of records nobody
// re-reads. The
// record belongs to the caller's scan alone and reflects the cursor's
// read state (the mapper's pinned snapshot, if any). Under the split
// strategy a cell holds one section, not a record, and Rec returns the
// zero Rec.
func (e *EntityCursor) Rec() (Rec, error) {
	if e.base == nil {
		return Rec{}, nil
	}
	r, err := e.m.decodeRecord(e.base, e.c.Value())
	if err != nil {
		return Rec{}, err
	}
	return Rec{r}, nil
}

// Next advances to the next entity of the scanned class.
func (e *EntityCursor) Next() {
	e.c.Next()
	e.skipNonMembers()
}

func (e *EntityCursor) skipNonMembers() {
	if e.filter < 0 {
		return
	}
	for e.c.Valid() {
		ok, err := holdsRole(e.c.Value(), e.filter)
		if err != nil {
			e.err = err
			return
		}
		if ok {
			return
		}
		e.c.Next()
	}
}

// holdsRole reports whether an encoded hierarchy record's role list names
// class id, walking the uvarint list in place.
func holdsRole(b []byte, id int) (bool, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return false, fmt.Errorf("luc: corrupt record header")
	}
	b = b[used:]
	for i := uint64(0); i < n; i++ {
		rid, used := binary.Uvarint(b)
		if used <= 0 {
			return false, fmt.Errorf("luc: corrupt role list")
		}
		if int(rid) == id {
			return true, nil
		}
		b = b[used:]
	}
	return false, nil
}

// Surrogates collects every entity of cl (a convenience for small scans).
func (m *Mapper) Surrogates(cl *catalog.Class) ([]value.Surrogate, error) {
	c, err := m.Scan(cl)
	if err != nil {
		return nil, err
	}
	var out []value.Surrogate
	for ; c.Valid(); c.Next() {
		out = append(out, c.Surrogate())
	}
	return out, c.Err()
}
