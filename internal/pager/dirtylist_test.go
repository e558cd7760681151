package pager

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// fullWalkCapture is the capture rule of a Snapshot that walks every
// resident frame of every shard: the dirty frames whose generation changed
// since their last capture, by page id with the generation a capture would
// record. It changes nothing, so it can run just before a Snapshot to say
// what that Snapshot must capture.
func fullWalkCapture(p *Pool) map[PageID]uint64 {
	out := make(map[PageID]uint64)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if f.dirty && f.gen != f.capGen {
				out[id] = f.gen
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// checkListed requires every resident frame that is dirty or holds
// uncommitted bytes to be on its shard's dirty list.
func checkListed(p *Pool) error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		on := make(map[*Frame]bool, len(sh.dirty))
		for _, f := range sh.dirty {
			on[f] = true
		}
		for id, f := range sh.frames {
			if (f.dirty || f.unc) && !on[f] {
				sh.mu.Unlock()
				return fmt.Errorf("page %d (dirty=%v unc=%v) is not on shard %d's dirty list", id, f.dirty, f.unc, i)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// listedFrames counts the dirty-list entries over all shards.
func listedFrames(p *Pool) int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].dirty)
	}
	return n
}

// TestDirtyListMatchesFullWalk drives a 16-frame pool through seeded
// random sequences of allocations, writes, copy-on-write cycles left open,
// bare MarkDirty calls, reads that evict, snapshots, write-backs, discards
// and flushes. After every step each frame that is dirty or mid-cycle must
// be on its shard's dirty list, and every Snapshot must capture exactly
// the frames — and generations — a walk of every resident frame finds,
// sharing each frame's buffer. Drained discards and flushes must leave the
// lists empty: nothing is left for the next commit to walk.
func TestDirtyListMatchesFullWalk(t *testing.T) {
	const filePages = 48
	for seed := int64(1); seed <= 20; seed++ {
		file := NewChecksumFile(NewMemByteFile())
		fillPages(t, file, filePages)
		p, err := NewPool(file, 16)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var pending []*Snapshot
		drain := func() {
			for _, s := range pending {
				if err := p.WriteBack(s); err != nil {
					t.Fatal(err)
				}
			}
			pending = nil
		}
		get := func() *Frame {
			n, err := file.NumPages()
			if err != nil {
				t.Fatal(err)
			}
			f, err := p.Get(PageID(rng.Intn(int(n))))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			switch op {
			case 0: // Allocate
				f, err := p.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				f.Data[0] = byte(step)
				p.Release(f)
			case 1: // AllocateAt a page inside the pool, or the next one
				f, err := p.AllocateAt(PageID(rng.Intn(int(p.NumPages()) + 1)))
				if err != nil {
					t.Fatal(err)
				}
				f.Data[0] = byte(step)
				p.Release(f)
			case 2: // a write: Prepare, mutate, MarkDirty
				f := get()
				p.Prepare(f)
				f.Data[1] = byte(step)
				p.MarkDirty(f)
				p.Release(f)
			case 3: // a copy-on-write cycle opened and left unchanged
				f := get()
				p.Prepare(f)
				p.Release(f)
			case 4: // a bare MarkDirty
				f := get()
				p.MarkDirty(f)
				p.Release(f)
			case 5: // a read; with 48 pages over 16 frames most evict
				p.Release(get())
			case 6: // a commit's capture
				want := fullWalkCapture(p)
				s := p.Snapshot()
				got := make(map[PageID]uint64, s.Len())
				for i, sp := range s.pages {
					got[sp.f.ID] = sp.gen
					if i > 0 && s.pages[i-1].f.ID >= sp.f.ID {
						t.Fatalf("seed %d step %d: snapshot not sorted by page id", seed, step)
					}
					if &sp.data[0] != &sp.f.Data[0] || sp.f.unc {
						t.Fatalf("seed %d step %d: page %d captured without sharing its closed frame buffer", seed, step, sp.f.ID)
					}
				}
				if !maps.Equal(got, want) {
					t.Fatalf("seed %d step %d: Snapshot captured %v, a full walk captures %v (page: gen)", seed, step, got, want)
				}
				pending = append(pending, s)
			case 7: // the oldest commit's write-back
				if len(pending) > 0 {
					if err := p.WriteBack(pending[0]); err != nil {
						t.Fatal(err)
					}
					pending = pending[1:]
				}
			case 8: // rollback, after the pipeline drains
				drain()
				if err := p.DiscardDirty(); err != nil {
					t.Fatal(err)
				}
			case 9: // checkpoint, after the pipeline drains
				drain()
				if err := p.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			if err := checkListed(p); err != nil {
				t.Fatalf("seed %d step %d (op %d): %v", seed, step, op, err)
			}
			if (op == 8 || op == 9) && listedFrames(p) != 0 {
				t.Fatalf("seed %d step %d (op %d): %d frames still listed after a drained walk", seed, step, op, listedFrames(p))
			}
		}
		if p.Stats().BuffersReused == 0 {
			t.Fatalf("seed %d: no frame was evicted; the test lost its preconditions", seed)
		}
	}
}
