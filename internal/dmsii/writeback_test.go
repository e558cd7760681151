package dmsii

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sim/internal/fault"
	"sim/internal/obs"
	"sim/internal/pager"
	"sim/internal/wal"
)

// TestWriteBackFailureAfterPublishCommits: a commit whose batch is durable
// and published has committed, so a failed write-back of its pages does
// not fail it — a caller told otherwise would retry what committed. The
// failure goes to the flight recorder and the store keeps the snapshot: a
// rollback writes it before it drops dirty frames (and fails, discarding
// nothing, while it cannot), so the row outlives later rollbacks, a
// checkpoint and a reopen.
func TestWriteBackFailureAfterPublishCommits(t *testing.T) {
	inj := fault.NewInjector()
	s, dbImg, walImg := newFaultStore(t, inj)
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	st, err := s.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, st, "k0", "before")

	// Fail the first data-file write after the commit's WAL fsync: its
	// write-back.
	var armed, failed atomic.Bool
	inj.Step = func(op uint64, what string) {
		switch {
		case what == "wal:sync" && armed.CompareAndSwap(true, false):
			inj.FailWrite(op+1, nil)
		case strings.HasPrefix(what, "db:fail-write"):
			failed.Store(true)
		}
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "k1", "committed")
	armed.Store(true)
	if err := tx.Commit(); err != nil {
		t.Fatalf("a durable, published commit reported %v", err)
	}
	if !failed.Load() {
		t.Fatal("no data-file write failed after the WAL fsync; the test lost its precondition")
	}
	var recorded bool
	for _, ev := range reg.Flight().Events() {
		recorded = recorded || ev.Kind == "failed after commit"
	}
	if !recorded {
		t.Error("the failed write-back is not in the flight recorder")
	}
	read := func(s *Store, when string) {
		t.Helper()
		sn := s.PinSnapshot()
		defer sn.Release()
		st, err := sn.Structure("a")
		if err != nil {
			t.Fatal(err)
		}
		if v, _, err := st.Get([]byte("k1")); err != nil || string(v) != "committed" {
			t.Fatalf("%s: k1 = %q (err %v), want the committed value", when, v, err)
		}
	}
	read(s, "after the commit")

	// A rollback while the pages still cannot be written fails and keeps
	// every frame; the next writer's discard writes them first.
	rollback := func(key string, fail bool) {
		t.Helper()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Structure("a")
		if err != nil {
			t.Fatal(err)
		}
		put(t, st, key, "rolled back")
		if fail {
			inj.FailWrite(inj.Ops()+1, nil)
		}
		if err := tx.Rollback(); (err != nil) != fail {
			t.Fatalf("rollback of %s with the write-back failing %v: %v", key, fail, err)
		}
	}
	rollback("k2", true)
	read(s, "after a rollback that could not write the commit")
	rollback("k3", false)
	read(s, "after a rollback")
	tx, err = s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Structure("a"); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{"k1": true, "k2": false, "k3": false} {
		if _, found, err := st.Get([]byte(key)); err != nil || found != want {
			t.Fatalf("live pages after the rollbacks: %s found %v (err %v), want %v", key, found, err, want)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint writes the frames the write-back left dirty and starts
	// a new log cycle, so the reopened file alone must hold the row.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenBacking(walImg)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFiles(pager.NewChecksumFile(dbImg), log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if info := reopened.RecoverInfo(); info.Replayed != 0 {
		t.Fatalf("reopen replayed %d batches; the checkpoint should have left none", info.Replayed)
	}
	read(reopened, "after a checkpoint and a reopen")
}

// closeRecorder is a byte file that records its Close.
type closeRecorder struct {
	*pager.MemByteFile
	closed atomic.Bool
}

func (c *closeRecorder) Close() error {
	c.closed.Store(true)
	return c.MemByteFile.Close()
}

// TestCloseReleasesFilesAfterFailedCheckpoint: a Close whose checkpoint
// fails still closes the WAL and the page file, reports the failure, and
// is not retried by a second Close. The WAL was not reset, so a reopen
// over the same images replays every committed row.
func TestCloseReleasesFilesAfterFailedCheckpoint(t *testing.T) {
	inj := fault.NewInjector()
	dbImg := &closeRecorder{MemByteFile: pager.NewMemByteFile()}
	walImg := &closeRecorder{MemByteFile: pager.NewMemByteFile()}
	log, err := wal.OpenBacking(fault.Wrap("wal", walImg, inj))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenFiles(pager.NewChecksumFile(fault.Wrap("db", dbImg, inj)), log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Structure("a")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20
	for i := range rows {
		commitPut(t, s, st, fmt.Sprintf("k%02d", i), "committed")
	}

	// Every commit has written its pages back, so the checkpoint's first
	// operation is the data-file sync.
	var failed atomic.Bool
	inj.Step = func(_ uint64, what string) {
		if what == "db:fail-sync" {
			failed.Store(true)
		}
	}
	inj.FailSync(inj.Ops()+1, nil)
	if err := s.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close with a failing checkpoint returned %v, want the injected error", err)
	}
	if !failed.Load() {
		t.Fatal("the checkpoint's data-file sync did not fail; the test lost its precondition")
	}
	if !dbImg.closed.Load() || !walImg.closed.Load() {
		t.Fatalf("after the failed Close: page file closed %v, WAL closed %v; want both",
			dbImg.closed.Load(), walImg.closed.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	log, err = wal.OpenBacking(walImg.MemByteFile)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFiles(pager.NewChecksumFile(dbImg.MemByteFile), log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	sn := reopened.PinSnapshot()
	defer sn.Release()
	if st, err = sn.Structure("a"); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		key := fmt.Sprintf("k%02d", i)
		if v, _, err := st.Get([]byte(key)); err != nil || string(v) != "committed" {
			t.Fatalf("after the reopen: %s = %q (err %v), want the committed value", key, v, err)
		}
	}
}
