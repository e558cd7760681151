package pager

import (
	"sync"
	"testing"
)

// TestPoolConcurrentReaders hammers Get/Release from many goroutines over
// a working set larger than the pool, mixing in Stats() calls; run under
// -race this is the regression test for the sharded pool.
func TestPoolConcurrentReaders(t *testing.T) {
	file := NewChecksumFile(NewMemByteFile())
	const pages = 64
	p, err := NewPool(file, 16)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < pages; i++ {
		f, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i)
		p.MarkDirty(f)
		ids = append(ids, f.ID)
		p.Release(f)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(i*7+g*13)%pages]
				f, err := p.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if f.Data[0] != byte(id) {
					t.Errorf("page %d read %d", id, f.Data[0])
					p.Release(f)
					return
				}
				p.Release(f)
				if i%50 == 0 {
					_ = p.Stats()
					_ = p.NumPages()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits+st.Misses < goroutines*500 {
		t.Errorf("stats lost accesses: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

// TestPoolShardedEvictionBounded checks the soft capacity still bounds the
// resident set when frames are clean.
func TestPoolShardedEvictionBounded(t *testing.T) {
	p, err := NewPool(NewChecksumFile(NewMemByteFile()), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		f, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.MarkDirty(f)
		p.Release(f)
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for i := range p.shards {
		resident += len(p.shards[i].frames)
	}
	// Per-shard soft capacity is ceil(16/8)=2; eviction runs at insert, so
	// each shard holds at most capacity clean frames plus the newest one.
	if resident > 3*poolShards {
		t.Errorf("resident frames = %d, want <= %d", resident, 3*poolShards)
	}
}
