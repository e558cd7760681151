package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"sim/internal/pager"
)

// Tree is a B+tree handle. The root page id changes when the root splits;
// owners persist it through the OnRootChange callback.
type Tree struct {
	a            Alloc
	root         pager.PageID
	onRootChange func(pager.PageID) error
}

// Create allocates an empty tree (a single leaf root).
func Create(a Alloc) (*Tree, error) {
	f, err := a.AllocPage()
	if err != nil {
		return nil, err
	}
	initNode(f, flagLeaf)
	a.MarkDirty(f)
	root := f.ID
	a.Release(f)
	return &Tree{a: a, root: root}, nil
}

// Open attaches to an existing tree rooted at root. onRootChange (may be
// nil) is invoked whenever the root page id changes. A root of
// pager.Invalid opens an empty tree that only reads: Get finds nothing and
// cursors start exhausted.
func Open(a Alloc, root pager.PageID, onRootChange func(pager.PageID) error) *Tree {
	return &Tree{a: a, root: root, onRootChange: onRootChange}
}

// Root returns the current root page id.
func (t *Tree) Root() pager.PageID { return t.root }

// SetOnRootChange installs the root-change callback.
func (t *Tree) SetOnRootChange(cb func(pager.PageID) error) { t.onRootChange = cb }

type split struct {
	sep   []byte
	right pager.PageID
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > maxKey {
		return fmt.Errorf("btree: key of %d bytes exceeds the %d-byte limit", len(key), maxKey)
	}
	var cell []byte
	if len(val) > maxInlineVal {
		head, err := t.writeOverflow(val)
		if err != nil {
			return err
		}
		cell = leafCellOverflow(key, len(val), head)
	} else {
		cell = leafCell(key, val)
	}
	sp, err := t.put(t.root, key, cell)
	if err != nil {
		return err
	}
	if sp == nil {
		return nil
	}
	// Root split: grow the tree by one level.
	f, err := t.a.AllocPage()
	if err != nil {
		return err
	}
	n := initNode(f, flagInterior)
	n.setNext(sp.right)
	if !n.insertCell(0, interiorCell(t.root, sp.sep)) {
		t.a.Release(f)
		return fmt.Errorf("btree: separator does not fit in fresh root")
	}
	t.a.MarkDirty(f)
	newRoot := f.ID
	t.a.Release(f)
	t.root = newRoot
	if t.onRootChange != nil {
		return t.onRootChange(newRoot)
	}
	return nil
}

// leafSearch finds the lower bound position of key in leaf n.
func leafSearch(n node, key []byte) (int, bool) {
	nc := n.nCells()
	i := sort.Search(nc, func(i int) bool { return bytes.Compare(n.leafKey(i), key) >= 0 })
	return i, i < nc && bytes.Equal(n.leafKey(i), key)
}

// route picks the child of interior node n to descend for key: the first
// cell whose separator exceeds key, else the rightmost child. It returns
// the cell index (nCells for rightmost) and the child id.
func route(n node, key []byte) (int, pager.PageID) {
	nc := n.nCells()
	i := sort.Search(nc, func(i int) bool { return bytes.Compare(n.interiorKey(i), key) > 0 })
	if i == nc {
		return nc, n.next()
	}
	return i, n.interiorChild(i)
}

func (t *Tree) put(id pager.PageID, key, cell []byte) (*split, error) {
	f, err := t.a.Get(id)
	if err != nil {
		return nil, err
	}
	defer t.a.Release(f)
	n := node{f}
	if err := n.check(); err != nil {
		return nil, err
	}

	if n.isLeaf() {
		i, found := leafSearch(n, key)
		t.a.Prepare(f)
		if found {
			// Replace: drop the old cell (freeing its overflow chain).
			if _, ovf, _ := n.leafValueInfo(i); ovf != pager.Invalid {
				if err := t.freeOverflow(ovf); err != nil {
					return nil, err
				}
			}
			n.deleteCell(i)
		}
		if n.insertCell(i, cell) {
			t.a.MarkDirty(f)
			return nil, nil
		}
		return t.splitLeaf(n, i, cell)
	}

	idx, child := route(n, key)
	sp, err := t.put(child, key, cell)
	if err != nil || sp == nil {
		return nil, err
	}
	return t.insertSeparator(n, idx, child, sp)
}

// insertSeparator records a child split (child, sp.sep, sp.right) in
// interior node n at cell position idx, splitting n itself when full.
func (t *Tree) insertSeparator(n node, idx int, child pager.PageID, sp *split) (*split, error) {
	// The new cell (child, sep) routes keys below sep to the old child;
	// the existing cell at idx (or the rightmost pointer) must now point
	// at the new right sibling.
	t.a.Prepare(n.f)
	if idx == n.nCells() {
		n.setNext(sp.right)
	} else {
		n.setInteriorChild(idx, sp.right)
	}
	cell := interiorCell(child, sp.sep)
	if n.insertCell(idx, cell) {
		t.a.MarkDirty(n.f)
		return nil, nil
	}
	return t.splitInterior(n, idx, cell)
}

// splitLeaf distributes the leaf's cells plus the new cell (at position i)
// across the old page and a new right sibling, splitting by byte volume.
func (t *Tree) splitLeaf(n node, i int, cell []byte) (*split, error) {
	cells := collectCells(n, i, cell)
	mid := splitPoint(cells)

	rf, err := t.a.AllocPage()
	if err != nil {
		return nil, err
	}
	defer t.a.Release(rf)
	r := initNode(rf, flagLeaf)
	r.setNext(n.next())
	for j, c := range cells[mid:] {
		if !r.insertCell(j, c) {
			return nil, fmt.Errorf("btree: split leaf overflow")
		}
	}
	t.a.Prepare(n.f)
	rebuild(n, flagLeaf, cells[:mid])
	n.setNext(rf.ID)
	t.a.MarkDirty(n.f)
	t.a.MarkDirty(rf)

	sep := keyOfLeafCell(cells[mid])
	return &split{sep: append([]byte(nil), sep...), right: rf.ID}, nil
}

// splitInterior splits interior node n after conceptually inserting cell at
// position i. The middle cell's key is promoted (not kept); its child
// becomes the left node's rightmost pointer.
func (t *Tree) splitInterior(n node, i int, cell []byte) (*split, error) {
	cells := collectCells(n, i, cell)
	mid := splitPoint(cells)
	if mid == len(cells)-1 {
		mid-- // promoted cell must leave at least one cell on the right
	}
	if mid < 1 {
		mid = 1
	}
	promoted := cells[mid]
	promChild := pager.PageID(binary.BigEndian.Uint32(promoted[:4]))
	promKey := keyOfInteriorCell(promoted)

	rightmost := n.next()
	rf, err := t.a.AllocPage()
	if err != nil {
		return nil, err
	}
	defer t.a.Release(rf)
	r := initNode(rf, flagInterior)
	r.setNext(rightmost)
	for j, c := range cells[mid+1:] {
		if !r.insertCell(j, c) {
			return nil, fmt.Errorf("btree: split interior overflow")
		}
	}
	t.a.Prepare(n.f)
	rebuild(n, flagInterior, cells[:mid])
	n.setNext(promChild)
	t.a.MarkDirty(n.f)
	t.a.MarkDirty(rf)

	return &split{sep: append([]byte(nil), promKey...), right: rf.ID}, nil
}

// collectCells copies out all of n's cells with newCell inserted at i.
func collectCells(n node, i int, newCell []byte) [][]byte {
	nc := n.nCells()
	cells := make([][]byte, 0, nc+1)
	for j := 0; j < nc; j++ {
		c := n.rawCell(j)
		cells = append(cells, append([]byte(nil), c...))
	}
	cells = append(cells, nil)
	copy(cells[i+1:], cells[i:])
	cells[i] = newCell
	return cells
}

// splitPoint picks the index where cumulative byte volume crosses half.
func splitPoint(cells [][]byte) int {
	total := 0
	for _, c := range cells {
		total += len(c)
	}
	acc := 0
	for i, c := range cells {
		acc += len(c)
		if acc*2 >= total {
			if i+1 >= len(cells) {
				return len(cells) - 1
			}
			return i + 1
		}
	}
	return len(cells) / 2
}

// rebuild reinitializes node n with the given cells.
func rebuild(n node, flags byte, cells [][]byte) {
	next := n.next()
	initNode(n.f, flags)
	n.setNext(next)
	for j, c := range cells {
		if !n.insertCell(j, c) {
			panic("btree: rebuild overflow")
		}
	}
}

func keyOfLeafCell(cell []byte) []byte {
	klen, k := binary.Uvarint(cell)
	return cell[k : k+int(klen)]
}

func keyOfInteriorCell(cell []byte) []byte {
	klen, k := binary.Uvarint(cell[4:])
	return cell[4+k : 4+k+int(klen)]
}

// Get returns the value stored for key, in a slice of its own.
func (t *Tree) Get(key []byte) ([]byte, bool, error) { return t.GetAppend(nil, key) }

// GetAppend appends the value stored for key to dst and returns the
// extended slice (dst itself when key is absent). A caller that only
// decodes the value passes a buffer of its own — one on its stack — and
// copies nothing to the heap.
func (t *Tree) GetAppend(dst, key []byte) ([]byte, bool, error) {
	id := t.root
	if id == pager.Invalid {
		return dst, false, nil // an empty tree (see Open)
	}
	for {
		f, err := t.a.Get(id)
		if err != nil {
			return dst, false, err
		}
		n := node{f}
		if err := n.check(); err != nil {
			t.a.Release(f)
			return dst, false, err
		}
		if !n.isLeaf() {
			_, child := route(n, key)
			t.a.Release(f)
			id = child
			continue
		}
		i, found := leafSearch(n, key)
		if !found {
			t.a.Release(f)
			return dst, false, nil
		}
		inline, ovf, total := n.leafValueInfo(i)
		if ovf == pager.Invalid {
			v := append(dst, inline...)
			t.a.Release(f)
			return v, true, nil
		}
		t.a.Release(f)
		v, err := t.readOverflow(dst, ovf, total)
		return v, err == nil, err
	}
}

// Delete removes key, reporting whether it was present. Emptied leaves are
// left in place (lazy space reclamation); their pages are recovered when
// the tree is dropped.
func (t *Tree) Delete(key []byte) (bool, error) {
	id := t.root
	for {
		f, err := t.a.Get(id)
		if err != nil {
			return false, err
		}
		n := node{f}
		if err := n.check(); err != nil {
			t.a.Release(f)
			return false, err
		}
		if !n.isLeaf() {
			_, child := route(n, key)
			t.a.Release(f)
			id = child
			continue
		}
		i, found := leafSearch(n, key)
		if !found {
			t.a.Release(f)
			return false, nil
		}
		if _, ovf, _ := n.leafValueInfo(i); ovf != pager.Invalid {
			if err := t.freeOverflow(ovf); err != nil {
				t.a.Release(f)
				return false, err
			}
		}
		t.a.Prepare(f)
		n.deleteCell(i)
		t.a.MarkDirty(f)
		t.a.Release(f)
		return true, nil
	}
}

// Drop frees every page of the tree, including overflow chains.
func (t *Tree) Drop() error {
	return t.drop(t.root)
}

func (t *Tree) drop(id pager.PageID) error {
	f, err := t.a.Get(id)
	if err != nil {
		return err
	}
	n := node{f}
	if n.isLeaf() {
		for i := 0; i < n.nCells(); i++ {
			if _, ovf, _ := n.leafValueInfo(i); ovf != pager.Invalid {
				if err := t.freeOverflow(ovf); err != nil {
					t.a.Release(f)
					return err
				}
			}
		}
		t.a.Release(f)
		return t.a.FreePage(id)
	}
	children := make([]pager.PageID, 0, n.nCells()+1)
	for i := 0; i < n.nCells(); i++ {
		children = append(children, n.interiorChild(i))
	}
	children = append(children, n.next())
	t.a.Release(f)
	for _, c := range children {
		if err := t.drop(c); err != nil {
			return err
		}
	}
	return t.a.FreePage(id)
}

// ---------------------------------------------------------------------------
// Overflow chains
// ---------------------------------------------------------------------------

const overflowHeader = 7 // flags(1) next(4) len(2)
const overflowCap = pager.PageSize - overflowHeader

func (t *Tree) writeOverflow(val []byte) (pager.PageID, error) {
	head := pager.Invalid
	var prev *pager.Frame
	for off := 0; off < len(val); off += overflowCap {
		end := off + overflowCap
		if end > len(val) {
			end = len(val)
		}
		f, err := t.a.AllocPage()
		if err != nil {
			if prev != nil {
				t.a.Release(prev)
			}
			return pager.Invalid, err
		}
		f.Data[0] = flagOverflow
		binary.BigEndian.PutUint32(f.Data[1:5], uint32(pager.Invalid))
		binary.BigEndian.PutUint16(f.Data[5:7], uint16(end-off))
		copy(f.Data[overflowHeader:], val[off:end])
		t.a.MarkDirty(f)
		if prev == nil {
			head = f.ID
		} else {
			t.a.Prepare(prev)
			binary.BigEndian.PutUint32(prev.Data[1:5], uint32(f.ID))
			t.a.MarkDirty(prev)
			t.a.Release(prev)
		}
		prev = f
	}
	if prev != nil {
		t.a.Release(prev)
	}
	return head, nil
}

func (t *Tree) readOverflow(dst []byte, head pager.PageID, total int) ([]byte, error) {
	out := slices.Grow(dst, total)
	id := head
	for id != pager.Invalid {
		f, err := t.a.Get(id)
		if err != nil {
			return nil, err
		}
		if f.Data[0] != flagOverflow {
			t.a.Release(f)
			return nil, fmt.Errorf("btree: page %d is not an overflow page", id)
		}
		n := int(binary.BigEndian.Uint16(f.Data[5:7]))
		out = append(out, f.Data[overflowHeader:overflowHeader+n]...)
		next := pager.PageID(binary.BigEndian.Uint32(f.Data[1:5]))
		t.a.Release(f)
		id = next
	}
	if len(out)-len(dst) != total {
		return nil, fmt.Errorf("btree: overflow chain has %d bytes, expected %d", len(out)-len(dst), total)
	}
	return out, nil
}

func (t *Tree) freeOverflow(head pager.PageID) error {
	id := head
	for id != pager.Invalid {
		f, err := t.a.Get(id)
		if err != nil {
			return err
		}
		next := pager.PageID(binary.BigEndian.Uint32(f.Data[1:5]))
		t.a.Release(f)
		if err := t.a.FreePage(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}
