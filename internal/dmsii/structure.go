package dmsii

import (
	"encoding/binary"
	"fmt"

	"sim/internal/btree"
	"sim/internal/pager"
)

// Structure is a named, ordered key/value collection — the substrate's
// equivalent of a DMSII data set or index set. Class LUCs, multi-valued DVA
// LUCs, EVA structures and secondary indexes are all Structures.
type Structure struct {
	s    *Store
	name string
	tree *btree.Tree
	ro   bool // snapshot view: reads only, pages resolved as of a pinned stamp
}

// Structure opens the named structure in the live store, creating it when
// absent. Creating allocates a page and writes the directory, so a caller
// that may create holds the store write latch (a transaction in its write
// phase) or owns the store outright; readers open structures through a
// Snap, which never creates. The directory lookup and open-structure cache
// are serialized behind the store's directory lock.
func (s *Store) Structure(name string) (*Structure, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	return s.structureLocked(name)
}

func (s *Store) structureLocked(name string) (*Structure, error) {
	if st, ok := s.open[name]; ok {
		return st, nil
	}
	var buf [4]byte
	rootBytes, found, err := s.dir.GetAppend(buf[:0], []byte(name))
	if err != nil {
		return nil, err
	}
	var tree *btree.Tree
	if found {
		root := pager.PageID(binary.BigEndian.Uint32(rootBytes))
		tree = btree.Open(s, root, nil)
	} else {
		tree, err = btree.Create(s)
		if err != nil {
			return nil, err
		}
		if err := s.putDirEntry(name, tree.Root()); err != nil {
			return nil, err
		}
	}
	st := &Structure{s: s, name: name, tree: tree}
	tree.SetOnRootChange(func(id pager.PageID) error { return s.putDirEntry(name, id) })
	s.open[name] = st
	return st, nil
}

// HasStructure reports whether the named structure exists without creating
// it.
func (s *Store) HasStructure(name string) (bool, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if _, ok := s.open[name]; ok {
		return true, nil
	}
	var buf [4]byte
	_, found, err := s.dir.GetAppend(buf[:0], []byte(name))
	return found, err
}

// DropStructure deletes the named structure and frees its pages.
func (s *Store) DropStructure(name string) error {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	st, err := s.structureLocked(name)
	if err != nil {
		return err
	}
	if err := st.tree.Drop(); err != nil {
		return err
	}
	delete(s.open, name)
	_, err = s.dir.Delete([]byte(name))
	return err
}

// Structures lists all structure names in lexicographic order.
func (s *Store) Structures() ([]string, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	c, err := s.dir.First()
	if err != nil {
		return nil, err
	}
	var names []string
	for ; c.Valid(); c.Next() {
		names = append(names, string(c.Key()))
	}
	return names, c.Err()
}

func (s *Store) putDirEntry(name string, root pager.PageID) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(root))
	return s.dir.Put([]byte(name), b[:])
}

// Name returns the structure's name.
func (st *Structure) Name() string { return st.name }

func (st *Structure) mutable() error {
	if st.ro {
		return fmt.Errorf("dmsii: mutation of %q through a read snapshot", st.name)
	}
	if !st.s.writeHeld.Load() {
		return fmt.Errorf("dmsii: mutation of %q outside a transaction", st.name)
	}
	return nil
}

// Put inserts or replaces a record.
func (st *Structure) Put(key, val []byte) error {
	if err := st.mutable(); err != nil {
		return err
	}
	return st.tree.Put(key, val)
}

// Get reads the record stored under key.
func (st *Structure) Get(key []byte) ([]byte, bool, error) { return st.tree.Get(key) }

// GetAppend appends the value stored for key to dst (see
// btree.Tree.GetAppend): a decode-only read into the caller's buffer.
func (st *Structure) GetAppend(dst, key []byte) ([]byte, bool, error) {
	return st.tree.GetAppend(dst, key)
}

// Delete removes the record stored under key.
func (st *Structure) Delete(key []byte) (bool, error) {
	if err := st.mutable(); err != nil {
		return false, err
	}
	return st.tree.Delete(key)
}

// First returns a cursor over all records in key order.
func (st *Structure) First() (*btree.Cursor, error) { return st.tree.First() }

// Seek returns a cursor positioned at the first key >= key.
func (st *Structure) Seek(key []byte) (*btree.Cursor, error) { return st.tree.Seek(key) }

// SeekPrefix returns a cursor over exactly the keys beginning with prefix.
func (st *Structure) SeekPrefix(prefix []byte) (*btree.Cursor, error) {
	return st.tree.SeekPrefix(prefix)
}

// SeekRangeInto positions a caller-reused cursor at the first key >= lo,
// ending it at the first key whose first len(through) bytes exceed
// through (nil: unbounded); see btree.Tree.SeekRangeInto. Reusing the
// cursor reuses its snapshot buffers instead of allocating per seek.
func (st *Structure) SeekRangeInto(cur *btree.Cursor, lo, through []byte) error {
	return st.tree.SeekRangeInto(cur, lo, through)
}

// SeekPrefixInto is SeekPrefix into a caller-reused cursor.
func (st *Structure) SeekPrefixInto(cur *btree.Cursor, prefix []byte) error {
	return st.tree.SeekPrefixInto(cur, prefix)
}
