package pager

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// ByteFile is byte-addressed storage: the raw medium a page file or a
// write-ahead log sits on. *os.File satisfies the I/O surface directly
// (OSByteFile adds Size); MemByteFile keeps the image in memory; the
// fault package wraps any ByteFile with scriptable failures, which is why
// both the pager and the WAL are written against this interface instead
// of *os.File.
type ByteFile interface {
	io.ReaderAt
	io.WriterAt
	// Truncate resizes the file to exactly size bytes.
	Truncate(size int64) error
	// Sync forces written bytes to stable storage.
	Sync() error
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Close releases the file.
	Close() error
}

// OSByteFile is a ByteFile backed by an operating system file.
type OSByteFile struct {
	f *os.File
}

// OpenOSByteFile opens (creating if necessary) the file at path.
func OpenOSByteFile(path string) (*OSByteFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	return &OSByteFile{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (o *OSByteFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (o *OSByteFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }

// Truncate implements ByteFile.
func (o *OSByteFile) Truncate(size int64) error { return o.f.Truncate(size) }

// Sync implements ByteFile.
func (o *OSByteFile) Sync() error { return o.f.Sync() }

// Size implements ByteFile.
func (o *OSByteFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close implements ByteFile.
func (o *OSByteFile) Close() error { return o.f.Close() }

// MemByteFile is an in-memory ByteFile. It is safe for concurrent use and
// survives the wrappers opened over it, so a crash-recovery test can
// "reopen" the same image with a fresh page file and WAL.
type MemByteFile struct {
	mu   sync.Mutex
	data []byte
}

// NewMemByteFile returns an empty in-memory byte file.
func NewMemByteFile() *MemByteFile { return &MemByteFile{} }

// ReadAt implements io.ReaderAt.
func (m *MemByteFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the file as needed.
func (m *MemByteFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.growLocked(off + int64(len(p)))
	return copy(m.data[off:], p), nil
}

// growLocked extends the file to size bytes of zeros, with amortised
// capacity growth so that appending to a log costs linear time overall.
// Capacity kept past a shrinking Truncate may hold old bytes, so the new
// range is cleared.
func (m *MemByteFile) growLocked(size int64) {
	n := len(m.data)
	if size <= int64(n) {
		return
	}
	m.data = slices.Grow(m.data, int(size)-n)[:size]
	clear(m.data[n:])
}

// Truncate implements ByteFile.
func (m *MemByteFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size <= int64(len(m.data)) {
		m.data = m.data[:size]
		return nil
	}
	m.growLocked(size)
	return nil
}

// Sync implements ByteFile.
func (m *MemByteFile) Sync() error { return nil }

// Size implements ByteFile.
func (m *MemByteFile) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Close implements ByteFile.
func (m *MemByteFile) Close() error { return nil }
