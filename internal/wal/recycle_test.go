package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sim/internal/fault"
	"sim/internal/pager"
)

// tearFile persists only the first tearAt bytes of its next write, which
// then fails: a crash that tears a write (tearAt < 0: no tear scheduled).
// It records every Truncate size.
type tearFile struct {
	*pager.MemByteFile
	tearAt int
	truncs []int64
}

var errTorn = errors.New("torn write")

func newTearFile() *tearFile { return &tearFile{MemByteFile: pager.NewMemByteFile(), tearAt: -1} }

func (f *tearFile) WriteAt(p []byte, off int64) (int, error) {
	if f.tearAt < 0 {
		return f.MemByteFile.WriteAt(p, off)
	}
	n := min(f.tearAt, len(p))
	f.tearAt = -1
	f.MemByteFile.WriteAt(p[:n], off)
	return n, errTorn
}

func (f *tearFile) Truncate(size int64) error {
	f.truncs = append(f.truncs, size)
	return f.MemByteFile.Truncate(size)
}

// group returns a commit group of pages first..first+2, each filled with
// fill: every group of these tests has the same shape.
func group(first pager.PageID, fill byte) []*pager.Frame {
	return []*pager.Frame{frame(first, fill), frame(first+1, fill), frame(first+2, fill)}
}

const (
	pageRecSize   = headerSize + pager.PageSize
	commitRecSize = headerSize + 8
	groupRecSize  = 3*pageRecSize + commitRecSize // a group without its end record
)

func mustCommit(t *testing.T, l *Log, frames []*pager.Frame) {
	t.Helper()
	if err := l.Commit(frames); err != nil {
		t.Fatal(err)
	}
}

// recoverImage reopens the log image and recovers it into a fresh file.
func recoverImage(t *testing.T, img *pager.MemByteFile) (*pager.MemFile, RecoverInfo) {
	t.Helper()
	l, err := OpenBacking(img)
	if err != nil {
		t.Fatal(err)
	}
	file := pager.NewMemFile()
	info, err := l.Recover(file)
	if err != nil {
		t.Fatal(err)
	}
	return file, info
}

// pageFill returns the fill byte of page id in file, or -1 when recovery
// never wrote it.
func pageFill(file *pager.MemFile, id pager.PageID) int {
	buf := make([]byte, pager.PageSize)
	if err := file.ReadPage(id, buf); err != nil {
		return -1
	}
	return int(buf[0])
}

// A torn group of a reused cycle sits over the previous cycle's records:
// with groups of identical shapes, the tear leaves an old record exactly
// where the torn group's next one would start, and the old group's commit
// record after it. Recovery must replay exactly the complete groups of
// the current cycle, whatever the tear leaves behind.
func TestRecoverTornGroupOverReusedCycle(t *testing.T) {
	var cuts []int
	for k := 0; k <= 3; k++ {
		cuts = append(cuts, k*pageRecSize) // at a record boundary
	}
	for k := 0; k < 3; k++ {
		cuts = append(cuts, k*pageRecSize+13) // 13 bytes into a page record
	}
	// 13 bytes into the commit record (the sequence number keeps counting
	// across cycles, so the stale payload behind it never matches), and
	// the whole group but its end record.
	cuts = append(cuts, 3*pageRecSize+13, groupRecSize)
	for _, cut := range cuts {
		bf := newTearFile()
		l, err := OpenBacking(bf)
		if err != nil {
			t.Fatal(err)
		}
		// Cycle N: three groups, then a checkpoint's Reset.
		mustCommit(t, l, group(1, 0xA1))
		mustCommit(t, l, group(4, 0xA4))
		mustCommit(t, l, group(7, 0xA7))
		if err := l.Reset(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		// Cycle N+1 rewrites the first group, then tears the second.
		mustCommit(t, l, group(1, 0xB1))
		bf.tearAt = cut
		if err := l.Commit(group(4, 0xB4)); err == nil {
			t.Fatalf("cut %d: torn commit succeeded", cut)
		}

		file, info := recoverImage(t, bf.MemByteFile)
		complete := cut >= groupRecSize // the commit record landed
		wantPages, wantCommits := 3, 1
		if complete {
			wantPages, wantCommits = 6, 2
		}
		if info.Replayed != wantPages || info.Commits != wantCommits {
			t.Fatalf("cut %d: recovered %+v, want %d pages in %d groups", cut, info, wantPages, wantCommits)
		}
		if info.Salvaged != (cut > 0) {
			t.Errorf("cut %d: salvaged = %v, want %v", cut, info.Salvaged, cut > 0)
		}
		for id := pager.PageID(1); id <= 9; id++ {
			want := -1
			switch {
			case id <= 3:
				want = 0xB1
			case id <= 6 && complete:
				want = 0xB4
			}
			if got := pageFill(file, id); got != want {
				t.Fatalf("cut %d: page %d recovered with fill %#x, want %#x", cut, id, got, want)
			}
		}
	}
}

// Salvage counts only a torn group of the current cycle: a clean reopen
// over a shorter cycle than the one before reports none, though old-cycle
// bytes follow the tail.
func TestSalvageOnlyCurrentCycle(t *testing.T) {
	bf := newTearFile()
	l, err := OpenBacking(bf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		mustCommit(t, l, group(pager.PageID(3*i+1), byte(i)))
	}
	if err := l.Reset(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, l, group(1, 0xC1))

	l2, err := OpenBacking(bf)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Size() != groupRecSize {
		t.Errorf("reopened size = %d, want one group's %d", l2.Size(), groupRecSize)
	}
	info, err := l2.Recover(pager.NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 3 || info.Salvaged || info.Discarded != 0 || l2.Stats().Salvages != 0 {
		t.Fatalf("clean reopen = %+v (salvages %d), want 3 pages and no salvage", info, l2.Stats().Salvages)
	}

	// Recovery started a new cycle; tear its first group 13 bytes in.
	mustCommit(t, l2, group(1, 0xD1))
	bf.tearAt = 13
	if err := l2.Commit(group(4, 0xD4)); err == nil {
		t.Fatal("torn commit succeeded")
	}
	l3, err := OpenBacking(bf.MemByteFile)
	if err != nil {
		t.Fatal(err)
	}
	info, err = l3.Recover(pager.NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 3 || !info.Salvaged || info.Discarded == 0 || l3.Stats().Salvages != 1 {
		t.Fatalf("torn reopen = %+v (salvages %d), want 3 pages and one salvage", info, l3.Stats().Salvages)
	}
}

// A log whose header fails its check is truncated before cycle 1 starts:
// none of its records replays, whatever cycle they were written in. A
// file that does not start with the log magic (a log of an older format,
// which began with a record) is refused and left as it is.
func TestInvalidHeaderTruncatesLog(t *testing.T) {
	foreign := pager.NewMemByteFile()
	old := appendRecord(nil, 0, recPage, 1, make([]byte, pager.PageSize))
	foreign.WriteAt(old, 0)
	if _, err := OpenBacking(foreign); err == nil {
		t.Error("a log without the magic opened")
	}
	if n, _ := foreign.Size(); n != int64(len(old)) {
		t.Errorf("refused log cut to %d bytes, want its %d", n, len(old))
	}

	for _, name := range []string{"damaged", "short"} {
		bf := newTearFile()
		l, err := OpenBacking(bf)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, l, group(1, 0xE1))
		mustCommit(t, l, group(4, 0xE4))
		if name == "damaged" {
			var b [1]byte
			bf.ReadAt(b[:], 15) // the low byte of the cycle
			bf.MemByteFile.WriteAt([]byte{b[0] ^ 1}, 15)
		} else {
			var hdr [logHeaderSize]byte
			bf.ReadAt(hdr[:], 0)
			bf.MemByteFile.Truncate(0)
			bf.MemByteFile.WriteAt(hdr[:logHeaderSize-1], 0)
		}
		l2, err := OpenBacking(bf)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := bf.Size(); n != logHeaderSize+headerSize || l2.Size() != 0 {
			t.Errorf("%s header: file %d bytes, size %d; want only a fresh header and end record", name, n, l2.Size())
		}
		info, err := l2.Recover(pager.NewMemFile())
		if err != nil || info.Replayed != 0 || info.Salvaged {
			t.Errorf("%s header: recover = %+v, %v; want nothing", name, info, err)
		}
		if l2.cycle != 1 {
			t.Errorf("%s header: cycle %d, want 1", name, l2.cycle)
		}
	}
}

// Reset of a poisoned log truncates the file to zero before the next
// cycle starts: no block of unknown durability is reused (fsyncgate).
func TestResetPoisonedTruncatesToZero(t *testing.T) {
	bf := newTearFile()
	l, err := OpenBacking(bf)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, l, group(1, 0xF1))
	bf.tearAt = pageRecSize
	if err := l.Commit(group(4, 0xF4)); err == nil {
		t.Fatal("torn commit succeeded")
	}
	if l.Poisoned() == nil {
		t.Fatal("failed append did not poison the log")
	}
	bf.truncs = nil
	if err := l.Reset(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if len(bf.truncs) != 1 || bf.truncs[0] != 0 {
		t.Errorf("poisoned reset truncated to %v, want [0]", bf.truncs)
	}
	if n, _ := bf.Size(); n != logHeaderSize+headerSize {
		t.Errorf("file after poisoned reset = %d bytes, want a fresh header and end record", n)
	}
	// A healthy log's Reset never truncates below the kept length.
	mustCommit(t, l, group(1, 0xF2))
	bf.truncs = nil
	if err := l.Reset(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if len(bf.truncs) != 0 {
		t.Errorf("healthy reset truncated to %v", bf.truncs)
	}
}

// A Reset that cuts an overlong file can crash at any of its storage
// operations, and tear its header write, without reverting a page: the
// first group writes page 1, a group past the kept length rewrites it,
// and the database file the checkpoint made current holds the rewrite.
// Had the cut come before the new header, the old header would survive
// over a prefix of its cycle, and recovery would replay the first
// group's image of page 1 over the second's.
func TestResetCrashNeverRevertsPages(t *testing.T) {
	keep := int64(logHeaderSize + groupRecSize + pageRecSize) // inside the second group
	run := func(crash func(inj *fault.Injector, base uint64)) (*pager.MemFile, uint64) {
		mem := pager.NewMemByteFile()
		inj := fault.NewInjector()
		l, err := OpenBacking(fault.Wrap("wal", mem, inj))
		if err != nil {
			t.Fatal(err)
		}
		db := pager.NewMemFile()
		for _, g := range [][]*pager.Frame{group(1, 0xA1), group(4, 0xA4), group(1, 0xB1)} {
			mustCommit(t, l, g)
			for _, fr := range g { // the checkpoint's flush
				if err := db.WritePage(fr.ID, fr.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
		base := inj.Ops()
		crash(inj, base)
		err = l.Reset(keep)
		if !inj.Crashed() {
			if err != nil {
				t.Fatal(err)
			}
			return nil, inj.Ops() - base
		}
		rl, err := OpenBacking(mem)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rl.Recover(db); err != nil {
			t.Fatal(err)
		}
		return db, 0
	}
	_, ops := run(func(*fault.Injector, uint64) {})
	if ops != 3 {
		t.Fatalf("healthy reset took %d storage operations, want header write, sync and cut", ops)
	}
	type point struct {
		op   uint64
		torn int // bytes of a torn write persisted, 0 = none
	}
	var points []point
	for op := uint64(1); op <= ops; op++ {
		points = append(points, point{op, 0})
	}
	for _, n := range []int{8, logHeaderSize - 1, logHeaderSize, logHeaderSize + 6} {
		points = append(points, point{1, n}) // the header write
	}
	for _, p := range points {
		db, _ := run(func(inj *fault.Injector, base uint64) { inj.CrashAtTorn(base+p.op, p.torn) })
		if db == nil {
			t.Fatalf("crash at reset op %d did not fire", p.op)
		}
		for id, want := range map[pager.PageID]int{1: 0xB1, 3: 0xB1, 4: 0xA4, 6: 0xA4} {
			if got := pageFill(db, id); got != want {
				t.Errorf("crash at reset op %d (torn %d): page %d recovered with fill %#x, want %#x", p.op, p.torn, id, got, want)
			}
		}
	}
}

// BenchmarkCommitRecycled times one 10-page commit group (write + fsync)
// on a real file, in a log's first cycle, which appends and grows the
// file, and in a later cycle, which overwrites blocks the file already
// owns. Each cycle holds cycleGroups groups (about 2.6 MB).
func BenchmarkCommitRecycled(b *testing.B) {
	const cycleGroups = 64
	frames := make([]*pager.Frame, 10)
	for i := range frames {
		frames[i] = frame(pager.PageID(i+1), byte(i))
	}
	open := func(b *testing.B, path string) *Log {
		l, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	commit := func(b *testing.B, l *Log) {
		if err := l.Commit(frames); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first-cycle", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.wal")
		var l *Log
		for i := range b.N {
			if i%cycleGroups == 0 {
				b.StopTimer()
				if l != nil {
					l.Close()
				}
				os.Remove(path)
				l = open(b, path)
				b.StartTimer()
			}
			commit(b, l)
		}
		l.Close()
	})
	b.Run("reused-cycle", func(b *testing.B) {
		l := open(b, filepath.Join(b.TempDir(), "bench.wal"))
		defer l.Close()
		for i := range b.N {
			if i%cycleGroups == 0 {
				b.StopTimer()
				if i == 0 {
					for range cycleGroups {
						commit(b, l)
					}
				}
				if err := l.Reset(math.MaxInt64); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			commit(b, l)
		}
	})
}
