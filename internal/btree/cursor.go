package btree

import (
	"bytes"

	"sim/internal/pager"
)

// Cursor iterates key/value pairs in ascending key order. It snapshots one
// leaf at a time, so the tree may be read (but not mutated) concurrently;
// the executor materializes update target lists before mutating. A
// bounded cursor (SeekRangeInto, SeekPrefixInto) snapshots only the cells
// inside its bound: a point probe copies the keys it returns, not the rest
// of the leaf.
type Cursor struct {
	t          *Tree
	keys       [][]byte
	vals       [][]byte
	buf        []byte // single backing store for the snapshotted cells
	offs       []int  // staging: key-end/value-end offset pairs into buf
	i          int
	next       pager.PageID
	valid      bool
	err        error
	through    []byte // non-nil: inclusive upper bound on each key's first len(through) bytes
	throughBuf []byte // reused backing for through across seeks
}

// First returns a cursor positioned at the smallest key.
func (t *Tree) First() (*Cursor, error) { return t.Seek(nil) }

// Seek returns a cursor positioned at the first key >= key.
func (t *Tree) Seek(key []byte) (*Cursor, error) {
	c := &Cursor{}
	if err := t.SeekRangeInto(c, key, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekPrefix returns a cursor over exactly the keys beginning with prefix.
func (t *Tree) SeekPrefix(prefix []byte) (*Cursor, error) {
	c := &Cursor{}
	if err := t.SeekPrefixInto(c, prefix); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekPrefixInto is SeekPrefix into a caller-reused cursor: the range from
// prefix through prefix, since a key at or above prefix whose first
// len(prefix) bytes are at most prefix begins with it.
func (t *Tree) SeekPrefixInto(c *Cursor, prefix []byte) error {
	return t.SeekRangeInto(c, prefix, prefix)
}

// SeekRangeInto positions c at the first key >= lo and bounds it by
// through: the cursor ends at the first key whose first len(through)
// bytes compare above through. A nil through leaves the cursor unbounded.
// Truncation preserves order, so every key after the first one outside
// the bound is outside too; the cursor stops copying there and never
// walks further siblings. c's internal buffers are reused: a zero Cursor
// is ready for use, and reusing one across seeks makes repeated point
// probes allocation-free in the steady state.
func (t *Tree) SeekRangeInto(c *Cursor, lo, through []byte) error {
	c.t = t
	c.err = nil
	c.valid = false
	c.through = nil
	if through != nil {
		c.throughBuf = append(c.throughBuf[:0], through...)
		c.through = c.throughBuf
	}
	id := t.root
	if id == pager.Invalid { // an empty tree (see Open)
		c.keys, c.vals = c.keys[:0], c.vals[:0]
		return nil
	}
	for {
		f, err := t.a.Get(id)
		if err != nil {
			return err
		}
		n := node{f}
		if err := n.check(); err != nil {
			t.a.Release(f)
			return err
		}
		if !n.isLeaf() {
			_, child := route(n, lo)
			t.a.Release(f)
			id = child
			continue
		}
		i, _ := leafSearch(n, lo)
		if err := c.loadLeaf(n, i); err != nil {
			t.a.Release(f)
			return err
		}
		t.a.Release(f)
		break
	}
	if !c.valid {
		c.advanceLeaf()
	}
	return c.err
}

// inside reports whether key k lies within the cursor's bound.
func (c *Cursor) inside(k []byte) bool {
	if c.through == nil {
		return true
	}
	if len(k) > len(c.through) {
		k = k[:len(c.through)]
	}
	return bytes.Compare(k, c.through) <= 0
}

// loadLeaf snapshots leaf n's cells from position i on, up to the first
// cell outside the bound; reaching that cell also ends the sibling walk.
// All cells share the cursor's single backing buffer: extents are
// recorded first (growth reallocates the buffer), then the key/value
// sub-slices are carved once the buffer is final, capacity-capped so
// appending to one cannot reach its neighbor.
func (c *Cursor) loadLeaf(n node, i int) error {
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
	c.buf = c.buf[:0]
	c.offs = c.offs[:0]
	c.i = 0
	c.next = n.next()
	nc := n.nCells()
	for j := i; j < nc; j++ {
		k := n.leafKey(j)
		if !c.inside(k) {
			c.next = pager.Invalid
			break
		}
		c.buf = append(c.buf, k...)
		c.offs = append(c.offs, len(c.buf))
		inline, ovf, total := n.leafValueInfo(j)
		if ovf == pager.Invalid {
			c.buf = append(c.buf, inline...)
		} else {
			v, err := c.t.readOverflow(c.buf, ovf, total)
			if err != nil {
				return err
			}
			c.buf = v
		}
		c.offs = append(c.offs, len(c.buf))
	}
	off := 0
	for k := 0; k+1 < len(c.offs); k += 2 {
		ke, ve := c.offs[k], c.offs[k+1]
		c.keys = append(c.keys, c.buf[off:ke:ke])
		c.vals = append(c.vals, c.buf[ke:ve:ve])
		off = ve
	}
	c.valid = len(c.keys) > 0
	return nil
}

// advanceLeaf walks the sibling chain until a non-empty leaf is found.
func (c *Cursor) advanceLeaf() {
	for c.next != pager.Invalid {
		f, err := c.t.a.Get(c.next)
		if err != nil {
			c.err = err
			c.valid = false
			return
		}
		n := node{f}
		err = c.loadLeaf(n, 0)
		c.t.a.Release(f)
		if err != nil {
			c.err = err
			c.valid = false
			return
		}
		if c.valid {
			return
		}
	}
	c.valid = false
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid && c.err == nil }

// Err returns the first error encountered while iterating.
func (c *Cursor) Err() error { return c.err }

// Key returns the current key (valid until Next).
func (c *Cursor) Key() []byte { return c.keys[c.i] }

// Value returns the current value (valid until Next).
func (c *Cursor) Value() []byte { return c.vals[c.i] }

// Next advances the cursor.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.i++
	if c.i >= len(c.keys) {
		c.advanceLeaf()
	}
}
