package pager

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestChecksumFileRoundTrip(t *testing.T) {
	f := NewChecksumFile(NewMemByteFile())
	page := make([]byte, PageSize)
	copy(page, "sealed page")
	if err := f.WritePage(5, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := f.ReadPage(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("round trip lost data")
	}
	if n, _ := f.NumPages(); n != 6 {
		t.Errorf("NumPages = %d, want 6 (grow to written id)", n)
	}
	if err := f.ReadPage(10, got); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	bf := NewMemByteFile()
	f := NewChecksumFile(bf)
	page := make([]byte, PageSize)
	copy(page, "precious data")
	if err := f.WritePage(2, page); err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside page 2's data region, as a failing disk would.
	var b [1]byte
	off := int64(2)*slotSize + 100
	bf.ReadAt(b[:], off)
	b[0] ^= 0x10
	bf.WriteAt(b[:], off)

	err := f.ReadPage(2, make([]byte, PageSize))
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupt read error = %v, want ErrCorruptPage", err)
	}
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.Page != 2 {
		t.Fatalf("corrupt error lacks page id: %v", err)
	}
	if f.ChecksumFailures() != 1 {
		t.Errorf("ChecksumFailures = %d, want 1", f.ChecksumFailures())
	}
	// Undamaged pages still read fine after the failure.
	if err := f.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, make([]byte, PageSize)); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsTornSlot(t *testing.T) {
	bf := NewMemByteFile()
	f := NewChecksumFile(bf)
	page := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := f.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(1, page); err != nil {
		t.Fatal(err)
	}
	// Tear page 1: overwrite its first half as an interrupted rewrite would.
	torn := bytes.Repeat([]byte{0xCD}, PageSize/2)
	bf.WriteAt(torn, slotSize)
	if err := f.ReadPage(1, make([]byte, PageSize)); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("torn page read = %v, want ErrCorruptPage", err)
	}
	// ReadPageRaw still hands back the damaged bytes for assessment.
	raw := make([]byte, PageSize)
	if err := f.ReadPageRaw(1, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xCD || raw[PageSize-1] != 0xAB {
		t.Error("raw read does not reflect the torn image")
	}
}

func TestMemByteFile(t *testing.T) {
	m := NewMemByteFile()
	if _, err := m.WriteAt([]byte("hello"), 10); err != nil {
		t.Fatal(err)
	}
	if size, _ := m.Size(); size != 15 {
		t.Errorf("Size = %d, want 15", size)
	}
	buf := make([]byte, 5)
	if _, err := m.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("read back %q", buf)
	}
	if n, err := m.ReadAt(make([]byte, 10), 12); err != io.EOF || n != 3 {
		t.Errorf("short read = %d, %v; want 3, EOF", n, err)
	}
	if _, err := m.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("read past end = %v, want EOF", err)
	}
	if err := m.Truncate(12); err != nil {
		t.Fatal(err)
	}
	if size, _ := m.Size(); size != 12 {
		t.Errorf("Size after truncate = %d", size)
	}
	if err := m.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if size, _ := m.Size(); size != 20 {
		t.Errorf("Size after growing truncate = %d", size)
	}
}
