package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sim/internal/pager"
)

// Bounded cursors (SeekRangeInto, SeekPrefixInto) must return exactly what
// an unbounded scan filtered by the same bound returns, and must never
// snapshot a cell outside the bound: a point probe copies what it returns,
// not the rest of its leaf.

type kv struct{ k, v []byte }

// within restates the bound independently of Cursor.inside: a key's first
// len(through) bytes are at most through exactly when the key is at most
// through or begins with it.
func within(k, through []byte) bool {
	return through == nil || bytes.Compare(k, through) <= 0 || bytes.HasPrefix(k, through)
}

// assertSnapshotInBound fails when the cursor's current leaf snapshot holds
// a cell outside its bound.
func assertSnapshotInBound(t *testing.T, c *Cursor, through []byte) {
	t.Helper()
	for _, k := range c.keys {
		if !within(k, through) {
			t.Fatalf("cursor snapshotted key %q outside bound %q", k, through)
		}
	}
}

// scanAll collects every entry with an unbounded cursor: the reference the
// bounded cursors are filtered from.
func scanAll(t *testing.T, tr *Tree) []kv {
	t.Helper()
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	var out []kv
	for ; c.Valid(); c.Next() {
		out = append(out, kv{bytes.Clone(c.Key()), bytes.Clone(c.Value())})
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// drain iterates a positioned cursor, checking each leaf snapshot against
// the bound before using it.
func drain(t *testing.T, c *Cursor, through []byte) []kv {
	t.Helper()
	var out []kv
	for ; c.Valid(); c.Next() {
		if c.i == 0 {
			assertSnapshotInBound(t, c, through)
		}
		out = append(out, kv{bytes.Clone(c.Key()), bytes.Clone(c.Value())})
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	assertSnapshotInBound(t, c, through)
	return out
}

func filterKV(ref []kv, keep func(k []byte) bool) []kv {
	var out []kv
	for _, e := range ref {
		if keep(e.k) {
			out = append(out, e)
		}
	}
	return out
}

func sameKV(t *testing.T, what string, got, want []kv) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
			t.Fatalf("%s: entry %d is %q (%d-byte value), want %q (%d-byte value)",
				what, i, got[i].k, len(got[i].v), want[i].k, len(want[i].v))
		}
	}
}

// checkRange runs SeekRangeInto(lo, through) on c and compares it with the
// filtered reference.
func checkRange(t *testing.T, tr *Tree, c *Cursor, ref []kv, lo, through []byte) {
	t.Helper()
	if err := tr.SeekRangeInto(c, lo, through); err != nil {
		t.Fatal(err)
	}
	got := drain(t, c, through)
	want := filterKV(ref, func(k []byte) bool { return bytes.Compare(k, lo) >= 0 && within(k, through) })
	sameKV(t, fmt.Sprintf("range [%q, %q]", lo, through), got, want)
}

// checkPrefix runs SeekPrefixInto(p) on c and compares it with the
// reference filtered by bytes.HasPrefix.
func checkPrefix(t *testing.T, tr *Tree, c *Cursor, ref []kv, p []byte) {
	t.Helper()
	if err := tr.SeekPrefixInto(c, p); err != nil {
		t.Fatal(err)
	}
	got := drain(t, c, p)
	want := filterKV(ref, func(k []byte) bool { return bytes.HasPrefix(k, p) })
	sameKV(t, fmt.Sprintf("prefix %q", p), got, want)
}

// emptyLeavesMidChain counts empty leaves with a non-empty leaf after them
// in the sibling chain — what lazy deletes leave behind.
func emptyLeavesMidChain(t *testing.T, tr *Tree) int {
	t.Helper()
	id := tr.root
	for {
		f, err := tr.a.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f}
		if n.isLeaf() {
			tr.a.Release(f)
			break
		}
		next := n.next()
		if n.nCells() > 0 {
			next = n.interiorChild(0)
		}
		tr.a.Release(f)
		id = next
	}
	empty, count := 0, 0
	for id != pager.Invalid {
		f, err := tr.a.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f}
		if n.nCells() == 0 {
			empty++
		} else {
			count += empty
			empty = 0
		}
		id = n.next()
		tr.a.Release(f)
	}
	return count
}

// groupTree builds four groups of 60 keys ("g0-000-…" … "g3-059-…", padded
// so a leaf holds about twenty), every seventh value overflowing, then
// deletes a run from g1-020 to g2-010 that empties whole leaves.
func groupTree(t *testing.T) (*Tree, []kv) {
	t.Helper()
	tr, _ := newTree(t)
	pad := bytes.Repeat([]byte("x"), 150)
	gk := func(g, i int) []byte { return append([]byte(fmt.Sprintf("g%d-%03d-", g, i)), pad...) }
	for g := 0; g < 4; g++ {
		for i := 0; i < 60; i++ {
			v := []byte(fmt.Sprintf("v%d.%d", g, i))
			if i%7 == 0 {
				v = bytes.Repeat(v, 300) // > maxInlineVal: an overflow chain
			}
			if err := tr.Put(gk(g, i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var run [][]byte
	for i := 20; i < 60; i++ {
		run = append(run, gk(1, i))
	}
	for i := 0; i <= 10; i++ {
		run = append(run, gk(2, i))
	}
	for _, k := range run {
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("delete %q: %v %v", k, ok, err)
		}
	}
	if emptyLeavesMidChain(t, tr) == 0 {
		t.Fatal("fixture left no empty leaf mid-chain")
	}
	return tr, scanAll(t, tr)
}

func TestSeekBounds(t *testing.T) {
	tr, ref := groupTree(t)
	c := new(Cursor) // reused across every case, as the mapper's probe pool does
	for _, tc := range []struct {
		name        string
		lo, through []byte
	}{
		{"prefix across leaf ends", []byte("g0-"), []byte("g0-")},
		{"prefix across the emptied leaves", []byte("g1-"), []byte("g1-")},
		{"range across the emptied leaves", []byte("g1-019"), []byte("g2-011")},
		{"range starting inside the emptied leaves", []byte("g1-030"), []byte("g2-")},
		{"through shorter than the keys", []byte("g0-050"), []byte("g1")},
		{"through longer than the keys", []byte("g3"), append([]byte("g3-010-"), bytes.Repeat([]byte("x"), 200)...)},
		{"absent prefix between groups", []byte("g15"), []byte("g15")},
		{"absent prefix inside the emptied run", []byte("g1-040-"), []byte("g1-040-")},
		{"absent prefix past the end", []byte("h"), []byte("h")},
		{"lo above through", []byte("g3-"), []byte("g2-")},
		{"unbounded from the middle", []byte("g2-030"), nil},
		{"unbounded from the start", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRange(t, tr, c, ref, tc.lo, tc.through)
			if bytes.Equal(tc.lo, tc.through) {
				checkPrefix(t, tr, c, ref, tc.lo)
			}
		})
	}

	t.Run("point probe snapshots one cell", func(t *testing.T) {
		key := ref[3].k
		if err := tr.SeekPrefixInto(c, key); err != nil {
			t.Fatal(err)
		}
		if !c.Valid() || !bytes.Equal(c.Key(), key) || len(c.keys) != 1 {
			t.Fatalf("point probe: valid=%v, %d cells snapshotted, want exactly %q", c.Valid(), len(c.keys), key)
		}
	})
	t.Run("unbounded seek snapshots the rest of its leaf", func(t *testing.T) {
		if err := tr.SeekRangeInto(c, ref[3].k, nil); err != nil {
			t.Fatal(err)
		}
		if len(c.keys) < 2 {
			t.Fatalf("unbounded seek snapshotted %d cells, want the rest of the leaf", len(c.keys))
		}
	})
	t.Run("empty tree", func(t *testing.T) {
		empty := Open(tr.a, pager.Invalid, nil)
		if _, ok, err := empty.Get([]byte("g0-")); ok || err != nil {
			t.Fatalf("Get on an empty tree: found=%v err=%v", ok, err)
		}
		checkRange(t, empty, c, nil, nil, nil)
		// c still holds the last leaf's cells, all above "a": an empty
		// tree's cursor must drop them.
		checkPrefix(t, empty, c, nil, []byte("a"))
	})
}

// seededTree builds a tree from seed: keys with heavily shared prefixes
// (two-letter alphabet, optional padding), some values above
// maxInlineVal, a contiguous run of deletes that can empty leaves
// mid-chain, and scattered deletes. It returns the tree, the reference
// scan and the deleted keys.
func seededTree(t *testing.T, seed int64) (*Tree, []kv, [][]byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, _ := newTree(t)
	alpha := []byte{0x00, 'a', 'b', 0xff}
	live := map[string][]byte{}
	n := 40 + r.Intn(400)
	for i := 0; i < n; i++ {
		k := make([]byte, 1+r.Intn(4))
		for j := range k {
			k[j] = alpha[1+r.Intn(2)]
		}
		for j := r.Intn(6); j > 0; j-- {
			k = append(k, alpha[r.Intn(len(alpha))])
		}
		if r.Intn(2) == 0 {
			k = append(k, bytes.Repeat([]byte{'p'}, r.Intn(300))...)
		}
		v := []byte(fmt.Sprintf("%d", i))
		if r.Intn(10) == 0 {
			v = bytes.Repeat(v, 1+(maxInlineVal+r.Intn(2*pager.PageSize))/len(v))
		}
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
		live[string(k)] = v
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var deleted [][]byte
	del := func(k string) {
		if ok, err := tr.Delete([]byte(k)); err != nil || !ok {
			t.Fatalf("delete %q: %v %v", k, ok, err)
		}
		delete(live, k)
		deleted = append(deleted, []byte(k))
	}
	from := r.Intn(len(keys))
	run := keys[from:min(len(keys), from+r.Intn(len(keys)/2+1))]
	for _, k := range run {
		del(k)
	}
	for _, k := range keys {
		if _, ok := live[k]; ok && r.Intn(8) == 0 {
			del(k)
		}
	}
	ref := scanAll(t, tr)
	if len(ref) != len(live) {
		t.Fatalf("reference scan has %d entries, want %d", len(ref), len(live))
	}
	for _, e := range ref {
		if !bytes.Equal(live[string(e.k)], e.v) {
			t.Fatalf("reference scan: %q has the wrong value", e.k)
		}
	}
	return tr, ref, deleted
}

// FuzzSeekBounds: on trees built from the seed, the fuzzed range and
// prefix, and bounds drawn from the tree's own live and deleted keys
// (prefixes and ranges crossing leaf ends, absent prefixes), return exactly
// the filtered unbounded scan and never snapshot a cell outside the bound.
func FuzzSeekBounds(f *testing.F) {
	f.Add(int64(1), []byte("a"), []byte("a"), false)
	f.Add(int64(2), []byte("ab"), []byte("b"), false)
	f.Add(int64(3), []byte{}, []byte("ba\x00"), false)
	f.Add(int64(4), []byte("b"), []byte(nil), true)
	f.Add(int64(5), []byte("bbb"), []byte("aa"), false)
	f.Fuzz(func(t *testing.T, seed int64, lo, through []byte, unbounded bool) {
		tr, ref, deleted := seededTree(t, seed)
		if unbounded {
			through = nil
		}
		c := new(Cursor)
		checkRange(t, tr, c, ref, lo, through)
		checkPrefix(t, tr, c, ref, lo)

		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		pick := func() []byte { // a live key, or one in three times a deleted one
			if len(deleted) > 0 && (len(ref) == 0 || r.Intn(3) == 0) {
				return deleted[r.Intn(len(deleted))]
			}
			if len(ref) == 0 {
				return nil
			}
			return ref[r.Intn(len(ref))].k
		}
		for i := 0; i < 24; i++ {
			k := pick()
			p := k[:r.Intn(len(k)+1)]
			switch i % 4 {
			case 0:
				checkPrefix(t, tr, c, ref, p)
			case 1:
				absent := append(bytes.Clone(p), 0x01) // outside the key alphabet
				checkPrefix(t, tr, c, ref, absent)
			case 2:
				k2 := pick()
				checkRange(t, tr, c, ref, p, k2[:r.Intn(len(k2)+1)])
			case 3:
				checkRange(t, tr, c, ref, nil, p)
			}
		}
	})
}
