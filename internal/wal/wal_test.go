package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sim/internal/pager"
)

func frame(id pager.PageID, fill byte) *pager.Frame {
	f := &pager.Frame{ID: id, Data: make([]byte, pager.PageSize)}
	for i := range f.Data {
		f.Data[i] = fill
	}
	return f
}

func openLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestCommitAndRecover(t *testing.T) {
	l, _ := openLog(t)
	if err := l.Commit([]*pager.Frame{frame(1, 0x11), frame(2, 0x22)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]*pager.Frame{frame(1, 0x33)}); err != nil {
		t.Fatal(err)
	}
	file := pager.NewMemFile()
	info, err := l.Recover(file)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 3 {
		t.Errorf("replayed %d pages, want 3", info.Replayed)
	}
	if info.Commits != 2 || info.Salvaged {
		t.Errorf("info = %+v, want 2 clean commits", info)
	}
	buf := make([]byte, pager.PageSize)
	file.ReadPage(1, buf)
	if buf[0] != 0x33 {
		t.Errorf("page 1 = %x, want later image 0x33", buf[0])
	}
	file.ReadPage(2, buf)
	if buf[0] != 0x22 {
		t.Errorf("page 2 = %x", buf[0])
	}
	if l.Size() != 0 {
		t.Error("log not truncated after recovery")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	l, _ := openLog(t)
	info, err := l.Recover(pager.NewMemFile())
	if err != nil || info.Replayed != 0 {
		t.Errorf("empty recover = %+v, %v", info, err)
	}
}

func TestTornTailIgnored(t *testing.T) {
	l, path := openLog(t)
	l.Commit([]*pager.Frame{frame(5, 0x55)})
	// Append half a record (a torn write at crash time).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{recPage, 0, 0, 0, 9})
	f.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	file := pager.NewMemFile()
	info, err := l2.Recover(file)
	if err != nil || info.Replayed != 1 {
		t.Fatalf("recover = %+v, %v; want 1 page", info, err)
	}
	if !info.Salvaged || info.Discarded != 5 {
		t.Errorf("salvage not reported: %+v", info)
	}
	if l2.Stats().Salvages != 1 {
		t.Errorf("salvage counter = %d", l2.Stats().Salvages)
	}
	buf := make([]byte, pager.PageSize)
	file.ReadPage(5, buf)
	if buf[0] != 0x55 {
		t.Error("committed batch lost")
	}
}

func TestUncommittedBatchDiscarded(t *testing.T) {
	l, path := openLog(t)
	l.Commit([]*pager.Frame{frame(1, 0xAA)})
	// Hand-append page records WITHOUT a commit marker.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	img := appendRecord(nil, recPage, 9, bytes.Repeat([]byte{0xBB}, pager.PageSize))
	f.Write(img)
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	file := pager.NewMemFile()
	info, err := l2.Recover(file)
	if err != nil || info.Replayed != 1 {
		t.Fatalf("recover = %+v, %v; want only the committed page", info, err)
	}
	if np, _ := file.NumPages(); np > 2 {
		t.Errorf("uncommitted page written: file has %d pages", np)
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	l, path := openLog(t)
	l.Commit([]*pager.Frame{frame(1, 0x01)})
	l.Commit([]*pager.Frame{frame(2, 0x02)})
	// Flip a byte inside the second batch.
	data, _ := os.ReadFile(path)
	data[len(data)-20] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	file := pager.NewMemFile()
	info, err := l2.Recover(file)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 {
		t.Errorf("replayed %d pages past corruption, want 1", info.Replayed)
	}
	if !info.Salvaged {
		t.Error("corrupt tail not reported as salvaged")
	}
}

func TestTruncate(t *testing.T) {
	l, path := openLog(t)
	l.Commit([]*pager.Frame{frame(1, 0x01)})
	if l.Size() == 0 {
		t.Fatal("log empty after commit")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != 0 || l.Size() != 0 {
		t.Error("truncate left bytes behind")
	}
}

func TestCommitEmptyBatch(t *testing.T) {
	l, _ := openLog(t)
	if err := l.Commit(nil); err != nil {
		t.Fatal(err)
	}
	info, err := l.Recover(pager.NewMemFile())
	if err != nil || info.Replayed != 0 {
		t.Errorf("empty batch recover = %+v, %v", info, err)
	}
}
