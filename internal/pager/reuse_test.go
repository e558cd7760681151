package pager

import (
	"bytes"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// fillPages writes n pages to file, page i filled with byte i+1.
func fillPages(t *testing.T, file *ChecksumFile, n int) {
	t.Helper()
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := file.WritePage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
}

// load reads page id through the pool and releases it at once, returning
// the frame's buffer.
func load(t *testing.T, p *Pool, id PageID) []byte {
	t.Helper()
	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	return f.Data
}

// TestHeldViewBufferIsNeverReused: a snapshot read holds a frame's buffer
// from ViewPage to EndView. Evicting that frame meanwhile must not read
// another page into the held buffer; once the read has ended, the next
// eviction of the frame reuses its buffer.
func TestHeldViewBufferIsNeverReused(t *testing.T) {
	file := NewChecksumFile(NewMemByteFile())
	fillPages(t, file, 64)
	p, err := NewPool(file, 4) // two frames per shard
	if err != nil {
		t.Fatal(err)
	}
	stamp := p.PinView()
	defer p.UnpinView(stamp)

	// Pages 1, 9, 17, 25, … share a shard.
	const a = PageID(1)
	var v Frame
	if err := p.ViewPage(a, stamp, &v); err != nil {
		t.Fatal(err)
	}
	held, want := v.Data, bytes.Clone(v.Data)

	// Page 9 fills the shard; 17 evicts a (least recently used), whose
	// buffer the view holds; 25 evicts 9, whose buffer nobody holds.
	load(t, p, 9)
	before := p.Stats()
	if got := load(t, p, 17); &got[0] == &held[0] {
		t.Fatal("the evicting miss read page 17 into the held buffer")
	}
	if st := p.Stats(); st.BuffersReused != before.BuffersReused || st.BuffersAllocated != before.BuffersAllocated+1 {
		t.Fatalf("evicting a held frame: reused %d→%d, allocated %d→%d; want an allocation",
			before.BuffersReused, st.BuffersReused, before.BuffersAllocated, st.BuffersAllocated)
	}
	load(t, p, 25)
	if st := p.Stats(); st.BuffersReused != before.BuffersReused+1 {
		t.Fatalf("evicting an unheld frame did not reuse its buffer (reused %d→%d)", before.BuffersReused, st.BuffersReused)
	}
	// Churn the shard, page a included, and check the held bytes.
	for i := 0; i < 3; i++ {
		for _, id := range []PageID{a, 9, 17, 25, 33} {
			if got := load(t, p, id); &got[0] == &held[0] {
				t.Fatalf("page %d was read into the held buffer", id)
			}
		}
	}
	if !bytes.Equal(held, want) {
		t.Fatal("the held view's bytes changed while it was held")
	}
	p.EndView(&v)

	// A view of the now resident a, ended before a is evicted: its buffer
	// goes to the next miss in the shard.
	if err := p.ViewPage(a, stamp, &v); err != nil {
		t.Fatal(err)
	}
	released := v.Data
	p.EndView(&v)
	load(t, p, 41) // the shard holds 33 and a; this evicts 33
	before = p.Stats()
	got := load(t, p, 49) // evicts a
	if st := p.Stats(); st.BuffersReused != before.BuffersReused+1 || &got[0] != &released[0] {
		t.Fatalf("after EndView the next eviction did not reuse the buffer (reused %d→%d)", before.BuffersReused, st.BuffersReused)
	}
	if got[0] != 50 {
		t.Fatalf("page 49 read as %d, want 50", got[0])
	}
}

// TestMissAllocs bounds the garbage of a steady-state pool miss over a
// checksummed file: the page is read into the evicted frame's buffer
// through a recycled slot, so a miss allocates only its frame header and
// LRU element, not page-sized buffers.
func TestMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	file := NewChecksumFile(NewMemByteFile())
	const pages = 256
	fillPages(t, file, pages)
	p, err := NewPool(file, 16)
	if err != nil {
		t.Fatal(err)
	}
	stamp := p.PinView()
	defer p.UnpinView(stamp)
	var v Frame
	read := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for id := PageID(0); id < pages; id++ {
				if err := p.ViewPage(id, stamp, &v); err != nil {
					t.Fatal(err)
				}
				p.EndView(&v)
			}
		}
	}
	read(2) // fill the pool and warm the slot pool
	misses := p.Stats().Misses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	read(8)
	runtime.ReadMemStats(&m1)
	misses = p.Stats().Misses - misses
	if misses < 8*pages/2 {
		t.Fatalf("only %d misses; the test lost its preconditions", misses)
	}
	per := (m1.TotalAlloc - m0.TotalAlloc) / misses
	t.Logf("%d misses, %d B allocated per miss", misses, per)
	if per >= 512 {
		t.Fatalf("a pool miss allocates %d B, want < 512", per)
	}
}

// TestRolledBackChainBufferIsNeverReused: a reader that finds a page's
// committed image on the version chain (the frame is mid copy-on-write)
// holds that buffer uncounted. Rolling back the write cycle moves the
// buffer back into the frame, and evicting the frame must not then read
// another page into it.
func TestRolledBackChainBufferIsNeverReused(t *testing.T) {
	file := NewChecksumFile(NewMemByteFile())
	fillPages(t, file, 64)
	p, err := NewPool(file, 4) // two frames per shard
	if err != nil {
		t.Fatal(err)
	}
	const a = PageID(2)
	commitPage(t, p, a, "v1")
	stamp := p.PinView()
	defer p.UnpinView(stamp)

	f, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	p.Prepare(f) // the committed image moves to the chain
	p.Release(f)
	var v Frame
	if err := p.ViewPage(a, stamp, &v); err != nil {
		t.Fatal(err)
	}
	held, want := v.Data, bytes.Clone(v.Data)
	if err := p.DiscardDirty(); err != nil { // rollback: the chain buffer returns to the frame
		t.Fatal(err)
	}
	for _, id := range []PageID{10, 18, 26, a, 34} {
		if got := load(t, p, id); &got[0] == &held[0] {
			t.Fatalf("page %d was read into the rolled-back chain buffer", id)
		}
	}
	if !bytes.Equal(held, want) {
		t.Fatal("a chain reader's bytes changed after the rollback")
	}
	p.EndView(&v)
}
