// Package pager provides fixed-size page files and a pinning buffer pool
// with LRU replacement. It is the lowest layer of the DMSII-like storage
// substrate that SIM's LUC Mapper runs against.
package pager

// PageSize is the fixed size of every page, in bytes.
const PageSize = 4096

// PageID identifies a page within a file. Page 0 is reserved for file
// metadata by the layers above.
type PageID uint32

// Invalid is the nil page id.
const Invalid PageID = 0xFFFFFFFF

// PageImage is one page's committed contents, as shipped between nodes
// by the replication subsystem: the page id plus its full PageSize image.
type PageImage struct {
	ID   PageID
	Data []byte
}
