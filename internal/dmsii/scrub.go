package dmsii

import (
	"errors"
	"fmt"
	"strings"

	"sim/internal/pager"
)

// ScrubReport is the result of a full physical + logical audit of the
// store. The paper's DMSII substrate audited its physical storage on
// SIM's behalf; Scrub is the equivalent facility here.
type ScrubReport struct {
	Pages      uint32         // pages verified against their checksums
	Corrupt    []pager.PageID // pages whose checksum did not match
	Structures int            // named structures cursor-scanned end to end
	Entries    int            // entries visited across all structures
	Errors     []string       // logical-scan failures (structure: cause)
}

// OK reports whether the audit found no damage.
func (r ScrubReport) OK() bool { return len(r.Corrupt) == 0 && len(r.Errors) == 0 }

// String renders the report for CLI display.
func (r ScrubReport) String() string {
	if r.OK() {
		return fmt.Sprintf("scrub ok: %d pages, %d structures, %d entries", r.Pages, r.Structures, r.Entries)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scrub FAILED: %d pages, %d structures, %d entries", r.Pages, r.Structures, r.Entries)
	for _, id := range r.Corrupt {
		fmt.Fprintf(&b, "\n  corrupt page %d", id)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\n  %s", e)
	}
	return b.String()
}

// Scrub audits every page and every structure in the store. It first
// checkpoints (so the database file is current), then re-reads every
// page from the file verifying its checksum, then cursor-scans the
// structure directory and every named structure end to end. Damage is
// reported, never repaired: a corrupt page is detected on read instead
// of being silently served, and Scrub tells the operator which page.
//
// Scrub holds the store's write latch for the checkpoint and refuses to
// run while transactions are open; concurrent readers are tolerated.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if s.active.Load() > 0 {
		return rep, fmt.Errorf("dmsii: Scrub with an open transaction")
	}
	unlock, err := s.lockWrites(false)
	if err != nil {
		return rep, err
	}
	cperr := s.checkpointLocked()
	unlock()
	if cperr != nil {
		return rep, fmt.Errorf("dmsii: scrub checkpoint: %w", cperr)
	}

	// Physical pass: every page in the file, checksums verified.
	n, err := s.file.NumPages()
	if err != nil {
		return rep, err
	}
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < n; id++ {
		err := s.file.ReadPage(pager.PageID(id), buf)
		switch {
		case err == nil:
			rep.Pages++
		case errors.Is(err, pager.ErrCorruptPage):
			rep.Pages++
			rep.Corrupt = append(rep.Corrupt, pager.PageID(id))
		default:
			return rep, fmt.Errorf("dmsii: scrub page %d: %w", id, err)
		}
	}

	// Logical pass: walk the directory and cursor-scan each structure.
	names, err := s.Structures()
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("directory: %v", err))
		return rep, nil
	}
	for _, name := range names {
		st, err := s.Structure(name)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: open: %v", name, err))
			continue
		}
		rep.Structures++
		cur, err := st.First()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: scan: %v", name, err))
			continue
		}
		for cur.Valid() {
			rep.Entries++
			cur.Next()
		}
		if err := cur.Err(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: scan: %v", name, err))
		}
	}
	return rep, nil
}
