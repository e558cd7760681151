package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sim/internal/pager"
)

// testAlloc is a minimal Alloc over a memory-backed pool with a trivial
// in-memory freelist.
type testAlloc struct {
	pool *pager.Pool
	free []pager.PageID
}

func newTestAlloc(t testing.TB, capacity int) *testAlloc {
	t.Helper()
	pool, err := pager.NewPool(pager.NewChecksumFile(pager.NewMemByteFile()), capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve page 0 as a stand-in meta page so Invalid-vs-0 confusion
	// would surface in tests.
	f, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(f)
	return &testAlloc{pool: pool}
}

func (a *testAlloc) AllocPage() (*pager.Frame, error) {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return a.pool.AllocateAt(id)
	}
	return a.pool.Allocate()
}

func (a *testAlloc) FreePage(id pager.PageID) error {
	a.free = append(a.free, id)
	return nil
}

func (a *testAlloc) Get(id pager.PageID) (*pager.Frame, error) { return a.pool.Get(id) }
func (a *testAlloc) Release(f *pager.Frame)                    { a.pool.Release(f) }
func (a *testAlloc) Prepare(f *pager.Frame)                    { a.pool.Prepare(f) }
func (a *testAlloc) MarkDirty(f *pager.Frame)                  { a.pool.MarkDirty(f) }

func newTree(t testing.TB) (*Tree, *testAlloc) {
	t.Helper()
	a := newTestAlloc(t, 64)
	tr, err := Create(a)
	if err != nil {
		t.Fatal(err)
	}
	return tr, a
}

func TestPutGetSmall(t *testing.T) {
	tr, _ := newTree(t)
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("nope")); ok {
		t.Error("found a missing key")
	}
}

func TestPutReplace(t *testing.T) {
	tr, _ := newTree(t)
	tr.Put([]byte("k"), []byte("old"))
	tr.Put([]byte("k"), []byte("new value that is longer"))
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "new value that is longer" {
		t.Fatalf("Get after replace = %q", v)
	}
}

func TestEmptyValueAndKey(t *testing.T) {
	tr, _ := newTree(t)
	if err := tr.Put([]byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte{})
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty kv: %q %v %v", v, ok, err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestManyInsertsAscending(t *testing.T) {
	tr, _ := newTree(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d = %q %v %v", i, v, ok, err)
		}
	}
}

func TestManyInsertsRandomOrder(t *testing.T) {
	tr, _ := newTree(t)
	const n = 5000
	r := rand.New(rand.NewSource(42))
	perm := r.Perm(n)
	for _, i := range perm {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Full scan must be sorted and complete.
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var prev []byte
	for ; c.Valid(); c.Next() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatalf("scan out of order at %q", c.Key())
		}
		prev = append(prev[:0], c.Key()...)
		count++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if count != n {
		t.Fatalf("scan found %d keys, want %d", count, n)
	}
}

func TestSeekLowerBound(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 100; i += 2 {
		tr.Put(key(i), val(i))
	}
	// Seek to an absent odd key lands on the next even one.
	c, err := tr.Seek(key(51))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || !bytes.Equal(c.Key(), key(52)) {
		t.Fatalf("seek landed on %q", c.Key())
	}
	// Seek beyond the end is invalid.
	c, _ = tr.Seek(key(1000))
	if c.Valid() {
		t.Error("seek past end should be invalid")
	}
}

func TestSeekPrefix(t *testing.T) {
	tr, _ := newTree(t)
	tr.Put([]byte("a:1"), []byte("x"))
	tr.Put([]byte("b:1"), []byte("x"))
	tr.Put([]byte("b:2"), []byte("x"))
	tr.Put([]byte("c:1"), []byte("x"))
	c, err := tr.SeekPrefix([]byte("b:"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for ; c.Valid(); c.Next() {
		got = append(got, string(c.Key()))
	}
	if len(got) != 2 || got[0] != "b:1" || got[1] != "b:2" {
		t.Fatalf("prefix scan = %v", got)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTree(t)
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 2 {
		ok, err := tr.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete(key(0)); ok {
		t.Error("double delete reported success")
	}
	for i := 0; i < n; i++ {
		_, ok, _ := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after delete, key %d present=%v want %v", i, ok, want)
		}
	}
	// Scan sees only survivors, in order.
	c, _ := tr.First()
	count := 0
	for ; c.Valid(); c.Next() {
		count++
	}
	if count != n/2 {
		t.Fatalf("scan found %d, want %d", count, n/2)
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i))
	}
	for i := 0; i < 500; i++ {
		tr.Delete(key(i))
	}
	c, _ := tr.First()
	if c.Valid() {
		t.Fatal("empty tree scan is valid")
	}
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i+1))
	}
	v, ok, _ := tr.Get(key(7))
	if !ok || !bytes.Equal(v, val(8)) {
		t.Fatalf("reinserted value = %q", v)
	}
}

func TestOverflowValues(t *testing.T) {
	tr, a := newTree(t)
	big := bytes.Repeat([]byte("x"), 3*pager.PageSize+123)
	if err := tr.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big get: len=%d ok=%v err=%v", len(v), ok, err)
	}
	// Replace frees the old chain.
	freeBefore := len(a.free)
	if err := tr.Put([]byte("big"), []byte("small now")); err != nil {
		t.Fatal(err)
	}
	if len(a.free) <= freeBefore {
		t.Error("replacing an overflow value freed no pages")
	}
	v, _, _ = tr.Get([]byte("big"))
	if string(v) != "small now" {
		t.Fatalf("after replace: %q", v)
	}
	// Cursor reads overflow values too.
	tr.Put([]byte("big2"), big)
	c, _ := tr.Seek([]byte("big2"))
	if !c.Valid() || !bytes.Equal(c.Value(), big) {
		t.Error("cursor did not read overflow value")
	}
	// Delete frees the chain.
	freeBefore = len(a.free)
	tr.Delete([]byte("big2"))
	if len(a.free) <= freeBefore {
		t.Error("deleting an overflow value freed no pages")
	}
}

func TestKeyTooLarge(t *testing.T) {
	tr, _ := newTree(t)
	if err := tr.Put(bytes.Repeat([]byte("k"), maxKey+1), []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestRootChangeCallback(t *testing.T) {
	tr, _ := newTree(t)
	var reported pager.PageID
	calls := 0
	tr.SetOnRootChange(func(id pager.PageID) error {
		reported = id
		calls++
		return nil
	})
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 {
		t.Fatal("root never split over 2000 inserts")
	}
	if reported != tr.Root() {
		t.Errorf("callback reported %d, tree root is %d", reported, tr.Root())
	}
}

func TestDropFreesPages(t *testing.T) {
	tr, a := newTree(t)
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), val(i))
	}
	tr.Put([]byte("zz-big"), bytes.Repeat([]byte("y"), 2*pager.PageSize))
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	// All pages but the reserved meta page are on the freelist.
	if got, want := len(a.free), int(a.pool.NumPages())-1; got != want {
		t.Errorf("freelist has %d pages, want %d", got, want)
	}
}

// TestRandomizedAgainstMap cross-checks a random operation sequence against
// a Go map oracle, then verifies full-scan ordering.
func TestRandomizedAgainstMap(t *testing.T) {
	tr, _ := newTree(t)
	oracle := map[string]string{}
	r := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("k%04d", r.Intn(3000))
		switch r.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d-%d", op, r.Intn(1000))
			if r.Intn(50) == 0 {
				v = string(bytes.Repeat([]byte(v), 200)) // force overflow sometimes
			}
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("op %d put: %v", op, err)
			}
			oracle[k] = v
		case 2:
			ok, err := tr.Delete([]byte(k))
			if err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			if _, present := oracle[k]; present != ok {
				t.Fatalf("op %d delete mismatch: oracle %v, tree %v", op, present, ok)
			}
			delete(oracle, k)
		}
	}
	// Point queries.
	for k, want := range oracle {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("get %q = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
	// Scan matches sorted oracle.
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; c.Valid(); c.Next() {
		if i >= len(keys) {
			t.Fatalf("scan has extra key %q", c.Key())
		}
		if string(c.Key()) != keys[i] {
			t.Fatalf("scan key %d = %q, want %q", i, c.Key(), keys[i])
		}
		if string(c.Value()) != oracle[keys[i]] {
			t.Fatalf("scan value for %q mismatched", c.Key())
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("scan found %d keys, want %d", i, len(keys))
	}
}

func BenchmarkPut(b *testing.B) {
	tr, _ := newTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(key(i), val(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr, _ := newTree(b)
	for i := 0; i < 10000; i++ {
		tr.Put(key(i), val(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 10000))
	}
}
