package dmsii

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/wal"
)

// newFaultStore assembles a durable store over in-memory byte images
// wrapped with a fault injector, returning the raw images so tests can
// damage them or "reboot" from them.
func newFaultStore(t *testing.T, inj *fault.Injector) (*Store, *pager.MemByteFile, *pager.MemByteFile) {
	t.Helper()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	file := pager.NewChecksumFile(fault.Wrap("db", dbImg, inj))
	log, err := wal.OpenBacking(fault.Wrap("wal", walImg, inj))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenFiles(file, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, dbImg, walImg
}

func commitPut(t *testing.T, s *Store, st *Structure, key, val string) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanStore(t *testing.T) {
	s, _, _ := newFaultStore(t, fault.NewInjector())
	st, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		commitPut(t, s, st, fmt.Sprintf("key%03d", i), "value")
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub of healthy store failed: %s", rep)
	}
	if rep.Entries != 50 || rep.Structures != 1 {
		t.Errorf("report = %+v, want 50 entries in 1 structure", rep)
	}
	if rep.Pages == 0 {
		t.Error("physical pass checked no pages")
	}
}

// A bit flipped in the stored image must surface as a detected,
// page-addressed corruption in the scrub report — not be silently
// served to readers.
func TestScrubReportsFlippedBit(t *testing.T) {
	s, dbImg, _ := newFaultStore(t, fault.NewInjector())
	st, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		commitPut(t, s, st, fmt.Sprintf("key%03d", i), "value")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Damage a byte in the middle of page 2's data region.
	const slot = int64(pager.PageSize + 4)
	var b [1]byte
	off := 2*slot + 512
	dbImg.ReadAt(b[:], off)
	b[0] ^= 0x01
	dbImg.WriteAt(b[:], off)

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub missed the flipped bit")
	}
	found := false
	for _, id := range rep.Corrupt {
		if id == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupt pages = %v, want page 2 reported", rep.Corrupt)
	}
}

// When journaling fails mid-commit, the transaction must abort: its
// in-memory effects are discarded and the store still serves the last
// committed state, rather than caching half-applied pages that a later
// commit would journal.
func TestFailedJournalAbortsTransaction(t *testing.T) {
	inj := fault.NewInjector()
	s, _, _ := newFaultStore(t, inj)
	st, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, st, "alice", "committed")

	// Script the next WAL sync to fail. Ops so far are unknown — use a
	// large window by failing every sync until one fires.
	inj.FailSync(inj.Ops()+2, nil) // commit = 1 write + 1 sync

	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put([]byte("bob"), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit with failing WAL sync succeeded")
	}

	// The WAL is poisoned; clear it the way an operator would (checkpoint
	// truncates), after verifying the aborted write is invisible.
	st3, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st3.Get([]byte("bob")); ok {
		t.Error("aborted transaction's write is visible")
	}
	if v, ok, err := st3.Get([]byte("alice")); err != nil || !ok || string(v) != "committed" {
		t.Errorf("committed row lost after aborted commit: %q %v %v", v, ok, err)
	}
}

// heldWriteBack starts a commit of key on s and returns once the commit
// has published its stamp and is held just before its write-back. Closing
// release lets the write-back run; the commit's error arrives on the
// returned channel.
func heldWriteBack(t *testing.T, s *Store, st *Structure, key string) (release chan struct{}, committed chan error) {
	t.Helper()
	held := make(chan struct{})
	release, committed = make(chan struct{}), make(chan error, 1)
	var once sync.Once
	s.auditCapture = func(_ *pager.Snapshot, writeBack bool) {
		if writeBack {
			once.Do(func() { close(held); <-release })
		}
	}
	go func() {
		tx, err := s.Begin()
		if err == nil {
			err = st.Put([]byte(key), []byte("value"))
		}
		if err == nil {
			err = tx.Commit()
		}
		committed <- err
	}()
	<-held
	return release, committed
}

// TestScrubAndCloseWaitForWriteBack: a commit stops counting as open at
// its publish, so Scrub and Close run beside a commit that is still
// writing its pages back. Each waits for that write-back under the write
// latch (drainPending) instead of refusing with an open transaction.
func TestScrubAndCloseWaitForWriteBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "writeback.db")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Structure("people")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, st, "key000", "value")
	// notBefore fails the test if done delivers before the write-back is
	// released: the call must block on it, not fail fast or skip it.
	notBefore := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("%s returned while a commit's write-back was held: %v", what, err)
		case <-time.After(100 * time.Millisecond):
		}
	}

	release, committed := heldWriteBack(t, s, st, "key001")
	scrubbed := make(chan error, 1)
	var rep ScrubReport
	go func() {
		var err error
		rep, err = s.Scrub()
		scrubbed <- err
	}()
	notBefore("Scrub", scrubbed)
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-scrubbed; err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Entries != 2 {
		t.Fatalf("scrub after the write-back: %s", rep)
	}

	release, committed = heldWriteBack(t, s, st, "key002")
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	notBefore("Close", closed)
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	s, err = OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st, err = s.Structure("people"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get([]byte("key002")); err != nil || !ok {
		t.Fatalf("the commit Close waited for is not in the reopened store (found %v, err %v)", ok, err)
	}
}
