package pager

import (
	"bytes"
	"testing"
)

// commitPage runs one page through the writer's commit cycle: CoW
// prepare, mutate, stamp, write back, publish. Returns the commit stamp.
func commitPage(t *testing.T, p *Pool, id PageID, content string) uint64 {
	t.Helper()
	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Prepare(f)
	copy(f.Data, content)
	p.MarkDirty(f)
	p.Release(f)
	snap := p.Snapshot()
	if err := p.WriteBack(snap); err != nil {
		t.Fatal(err)
	}
	p.Publish(snap.Stamp())
	return snap.Stamp()
}

// viewCopy reads page id as of stamp through ViewPage and returns a copy,
// ending the view before returning.
func viewCopy(t *testing.T, p *Pool, id PageID, stamp uint64) []byte {
	t.Helper()
	var v Frame
	if err := p.ViewPage(id, stamp, &v); err != nil {
		t.Fatal(err)
	}
	got := bytes.Clone(v.Data)
	p.EndView(&v)
	return got
}

// TestViewPageResolvesPinnedVersion: a reader pinned before a commit
// keeps seeing the pre-image out of the version chain, while a reader
// pinned after sees the new bytes.
func TestViewPageResolvesPinnedVersion(t *testing.T) {
	p, err := NewPool(NewChecksumFile(NewMemByteFile()), 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	copy(f.Data, "v1")
	p.MarkDirty(f)
	p.Release(f)
	snap := p.Snapshot()
	if err := p.WriteBack(snap); err != nil {
		t.Fatal(err)
	}
	p.Publish(snap.Stamp())

	old := p.PinView()
	defer p.UnpinView(old)
	commitPage(t, p, id, "v2")

	got := viewCopy(t, p, id, old)
	if !bytes.Equal(got[:2], []byte("v1")) {
		t.Fatalf("pinned view read %q, want the pre-image v1", got[:2])
	}
	cur := p.PinView()
	defer p.UnpinView(cur)
	got = viewCopy(t, p, id, cur)
	if !bytes.Equal(got[:2], []byte("v2")) {
		t.Fatalf("fresh view read %q, want v2", got[:2])
	}
}

// TestViewPageAfterEvictionReadsCommittedImage pins the stale-snapshot
// regression: once the frame holding a committed image is evicted, a view
// at (or after) that commit must be answered by the file — which is
// current for evicted pages — and not by the older pre-image an earlier
// reader still keeps alive on the version chain.
func TestViewPageAfterEvictionReadsCommittedImage(t *testing.T) {
	p, err := NewPool(NewChecksumFile(NewMemByteFile()), 8*2) // two frames per shard
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	copy(f.Data, "v1")
	p.MarkDirty(f)
	p.Release(f)
	snap := p.Snapshot()
	if err := p.WriteBack(snap); err != nil {
		t.Fatal(err)
	}
	p.Publish(snap.Stamp())

	old := p.PinView() // keeps the v1 pre-image on the chain
	defer p.UnpinView(old)
	commitPage(t, p, id, "v2")
	if p.LiveVersions() == 0 {
		t.Fatal("no retained version; the test lost its preconditions")
	}

	// Evict the committed (clean) frame: new pages in its shard push it out.
	for i := 0; i < 4*poolShards; i++ {
		nf, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Release(nf)
	}
	sh := p.shardOf(id)
	sh.mu.Lock()
	_, resident := sh.frames[id]
	sh.mu.Unlock()
	if resident {
		t.Fatal("committed frame still resident; the test lost its preconditions")
	}

	cur := p.PinView()
	defer p.UnpinView(cur)
	got := viewCopy(t, p, id, cur)
	if !bytes.Equal(got[:2], []byte("v2")) {
		t.Fatalf("view at the commit's stamp read %q after eviction, want v2", got[:2])
	}
	// The older reader still resolves its pre-image from the chain.
	got = viewCopy(t, p, id, old)
	if !bytes.Equal(got[:2], []byte("v1")) {
		t.Fatalf("pinned view read %q, want the pre-image v1", got[:2])
	}
}
