package pager

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"sim/internal/obs"
)

// ErrCorruptPage is the sentinel every checksum failure wraps; match with
// errors.Is. The concrete *CorruptPageError carries the page id.
var ErrCorruptPage = errors.New("pager: corrupt page")

// CorruptPageError reports a page whose stored checksum does not match its
// contents: a torn write the WAL could not repair, or byzantine disk
// damage. The storage engine detects it on read instead of serving the
// damaged bytes.
type CorruptPageError struct {
	Page PageID
	Want uint32 // checksum stored in the page trailer
	Got  uint32 // checksum of the bytes actually read
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pager: corrupt page %d: checksum %08x, computed %08x", e.Page, e.Want, e.Got)
}

// Unwrap makes errors.Is(err, ErrCorruptPage) hold.
func (e *CorruptPageError) Unwrap() error { return ErrCorruptPage }

// slotSize is the on-disk footprint of one page: PageSize data bytes plus
// a 4-byte CRC32 (IEEE) trailer. The trailer lives outside the page image,
// so the layers above keep their full PageSize of usable space and page
// ids map to byte offsets by id*slotSize.
const slotSize = PageSize + 4

// slots recycles the slot buffers ReadPage and WritePage stage a page and
// its trailer in. A slot handed to ByteFile.ReadAt/WriteAt escapes to the
// heap, so a stack array would cost an allocation on every pool miss and
// every page write.
var slots = sync.Pool{New: func() any { return new([slotSize]byte) }}

// ChecksumFile is the page file: random access storage in page units over
// a ByteFile, in memory or on disk, with a per-page CRC32 trailer.
// WritePage seals each page with the checksum of its contents; ReadPage
// verifies it and returns *CorruptPageError on mismatch. This turns silent
// disk corruption and unrepaired torn page writes into detected, page-
// addressed failures (the paper's DMSII substrate audited its physical
// storage; this is our equivalent).
type ChecksumFile struct {
	bf      ByteFile
	badRead atomic.Uint64 // checksum verification failures observed
	flight  atomic.Pointer[obs.FlightRing]
}

// NewChecksumFile returns a checksummed page file over bf.
func NewChecksumFile(bf ByteFile) *ChecksumFile { return &ChecksumFile{bf: bf} }

// OpenOSFile opens (creating if necessary) the checksummed page file at
// path. This is the standard durable page file.
func OpenOSFile(path string) (*ChecksumFile, error) {
	bf, err := OpenOSByteFile(path)
	if err != nil {
		return nil, err
	}
	return NewChecksumFile(bf), nil
}

// ReadPage fills buf (PageSize bytes) with the page's contents, verifying
// the page checksum.
func (c *ChecksumFile) ReadPage(id PageID, buf []byte) error {
	slot := slots.Get().(*[slotSize]byte)
	defer slots.Put(slot)
	if _, err := c.bf.ReadAt(slot[:], int64(id)*slotSize); err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	want := uint32(slot[PageSize])<<24 | uint32(slot[PageSize+1])<<16 |
		uint32(slot[PageSize+2])<<8 | uint32(slot[PageSize+3])
	if got := crc32.ChecksumIEEE(slot[:PageSize]); got != want {
		c.badRead.Add(1)
		c.flight.Load().Record(obs.FlightEvent{Comp: "pager", Kind: "checksum",
			Pos: uint64(id), Note: fmt.Sprintf("stored %08x computed %08x", want, got)})
		return &CorruptPageError{Page: id, Want: want, Got: got}
	}
	copy(buf[:PageSize], slot[:PageSize])
	return nil
}

// ReadPageRaw reads the page without checksum verification, for damage
// assessment (Scrub reports the corruption but may still want the bytes).
func (c *ChecksumFile) ReadPageRaw(id PageID, buf []byte) error {
	if _, err := c.bf.ReadAt(buf[:PageSize], int64(id)*slotSize); err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	return nil
}

// WritePage stores buf (PageSize bytes) as the page's contents, growing
// the file as needed and sealing the page with its checksum.
func (c *ChecksumFile) WritePage(id PageID, buf []byte) error {
	slot := slots.Get().(*[slotSize]byte)
	defer slots.Put(slot)
	copy(slot[:PageSize], buf[:PageSize])
	crc := crc32.ChecksumIEEE(slot[:PageSize])
	slot[PageSize] = byte(crc >> 24)
	slot[PageSize+1] = byte(crc >> 16)
	slot[PageSize+2] = byte(crc >> 8)
	slot[PageSize+3] = byte(crc)
	if _, err := c.bf.WriteAt(slot[:], int64(id)*slotSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	return nil
}

// NumPages returns the current page count. A torn final slot (partial page at the tail)
// does not count as a page; WAL replay rewrites and completes it.
func (c *ChecksumFile) NumPages() (uint32, error) {
	size, err := c.bf.Size()
	if err != nil {
		return 0, err
	}
	return uint32(size / slotSize), nil
}

// TruncatePages resizes the file to exactly n checksummed slots.
func (c *ChecksumFile) TruncatePages(n uint32) error {
	return c.bf.Truncate(int64(n) * slotSize)
}

// Sync forces written pages to stable storage.
func (c *ChecksumFile) Sync() error { return c.bf.Sync() }

// Close releases the file.
func (c *ChecksumFile) Close() error { return c.bf.Close() }

// ChecksumFailures returns the number of checksum verification failures
// observed since open.
func (c *ChecksumFile) ChecksumFailures() uint64 { return c.badRead.Load() }

// RegisterMetrics publishes the file's robustness counters on an obs
// registry.
func (c *ChecksumFile) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_pager_checksum_failures_total",
		"Page reads rejected because the stored CRC32 did not match the contents.",
		func() float64 { return float64(c.badRead.Load()) })
	c.flight.Store(r.Flight().Component("pager"))
}

// assert interface conformance at compile time.
var (
	_ ByteFile = (*OSByteFile)(nil)
	_ ByteFile = (*MemByteFile)(nil)
)
