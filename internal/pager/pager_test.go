package pager

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestOSFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := make([]byte, PageSize)
	copy(page, "disk page")
	if err := f.WritePage(2, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := f.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:9], []byte("disk page")) {
		t.Errorf("read back %q", got[:9])
	}
	if n, _ := f.NumPages(); n != 3 {
		t.Errorf("NumPages = %d", n)
	}
}

func newPool(t *testing.T, capacity int) *Pool {
	t.Helper()
	p, err := NewPool(NewChecksumFile(NewMemByteFile()), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolAllocateAndGet(t *testing.T) {
	p := newPool(t, 8)
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data, "page zero")
	p.MarkDirty(f)
	p.Release(f)

	g, err := p.Get(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Data[:9], []byte("page zero")) {
		t.Errorf("got %q", g.Data[:9])
	}
	p.Release(g)
	st := p.Stats()
	if st.Hits == 0 {
		t.Error("second Get should be a pool hit")
	}
}

func TestPoolEvictionWritesNothingDirty(t *testing.T) {
	// No-steal: dirty frames survive over-capacity allocation; clean
	// frames are evicted without file writes.
	p := newPool(t, 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i)
		p.MarkDirty(f)
		ids = append(ids, f.ID)
		p.Release(f)
	}
	if got := p.Stats().PageWrites; got != 0 {
		t.Errorf("dirty frames written during eviction: %d", got)
	}
	// All 8 dirty pages still correct in pool (soft capacity).
	for i, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i) {
			t.Errorf("page %d corrupted", id)
		}
		p.Release(f)
	}
}

func TestPoolCleanEviction(t *testing.T) {
	p := newPool(t, 4)
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, _ := p.Allocate()
		f.Data[0] = byte(i + 1)
		p.MarkDirty(f)
		ids = append(ids, f.ID)
		p.Release(f)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Now clean; filling the pool evicts them without writes.
	before := p.Stats().PageWrites
	for i := 0; i < 4; i++ {
		f, _ := p.Allocate()
		p.Release(f)
	}
	if got := p.Stats().PageWrites; got != before {
		t.Errorf("clean eviction wrote pages: %d → %d", before, got)
	}
	// Evicted pages reload from the file with correct contents.
	for i, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i+1) {
			t.Errorf("page %d lost contents after clean eviction", id)
		}
		p.Release(f)
	}
}

func TestPoolDiscardDirty(t *testing.T) {
	file := NewChecksumFile(NewMemByteFile())
	p, _ := NewPool(file, 8)
	f, _ := p.Allocate()
	f.Data[0] = 42
	p.MarkDirty(f)
	id := f.ID
	p.Release(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Dirty it again, then discard.
	f, _ = p.Get(id)
	f.Data[0] = 99
	p.MarkDirty(f)
	p.Release(f)
	if err := p.DiscardDirty(); err != nil {
		t.Fatal(err)
	}
	f, _ = p.Get(id)
	if f.Data[0] != 42 {
		t.Errorf("discard did not restore committed contents: %d", f.Data[0])
	}
	p.Release(f)
}

func TestPoolDiscardDirtyRefusesPinned(t *testing.T) {
	p := newPool(t, 8)
	f, _ := p.Allocate()
	p.MarkDirty(f)
	if err := p.DiscardDirty(); err == nil {
		t.Error("DiscardDirty with pinned dirty frame succeeded")
	}
	p.Release(f)
}

func TestPoolReleasePanicsWhenUnpinned(t *testing.T) {
	p := newPool(t, 8)
	f, _ := p.Allocate()
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	p.Release(f)
}

func TestPoolPinningKeepsFrameStable(t *testing.T) {
	p := newPool(t, 4)
	pinned, _ := p.Allocate()
	pinned.Data[0] = 7
	p.MarkDirty(pinned)
	// Churn the pool well past capacity.
	for i := 0; i < 16; i++ {
		f, _ := p.Allocate()
		p.Release(f)
	}
	if pinned.Data[0] != 7 {
		t.Error("pinned frame reused")
	}
	p.Release(pinned)
}

func TestAllocateAtZeroes(t *testing.T) {
	p := newPool(t, 8)
	f, _ := p.Allocate()
	for i := range f.Data {
		f.Data[i] = 0xAA
	}
	p.MarkDirty(f)
	id := f.ID
	p.Release(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	g, err := p.AllocateAt(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PageSize; i += 512 {
		if g.Data[i] != 0 {
			t.Fatalf("AllocateAt not zeroed at %d", i)
		}
	}
	p.Release(g)
}
