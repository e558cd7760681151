package dmsii

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sim/internal/pager"
	"sim/internal/wal"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenMemory(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, st *Structure, k, v string) {
	t.Helper()
	if err := st.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func TestBasicStructureOps(t *testing.T) {
	s := memStore(t)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Structure("persons")
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "a", "1")
	put(t, st, "b", "2")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	names, err := s.Structures()
	if err != nil || len(names) != 1 || names[0] != "persons" {
		t.Fatalf("structures = %v %v", names, err)
	}
}

func TestMutationOutsideTxnFails(t *testing.T) {
	s := memStore(t)
	st, err := s.Structure("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("v")); err == nil {
		t.Error("Put outside transaction succeeded")
	}
	if _, err := st.Delete([]byte("k")); err == nil {
		t.Error("Delete outside transaction succeeded")
	}
}

func TestWritePhaseSerialized(t *testing.T) {
	s := memStore(t)
	tx, _ := s.Begin()
	// A second writer queues on the write latch rather than failing; it
	// proceeds once the first transaction finishes.
	done := make(chan error, 1)
	go func() {
		tx2, err := s.Begin()
		if err == nil {
			err = tx2.Rollback()
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("second Begin proceeded while the first held the write latch")
	case <-time.After(20 * time.Millisecond):
	}
	tx.Rollback()
	if err := <-done; err != nil {
		t.Errorf("queued Begin after rollback: %v", err)
	}
}

// TestLatchConflict: the entities the write-latch holder writes conflict
// at another session's door check, never at the holder's own, and the set
// dies with the holder's Commit or Rollback.
func TestLatchConflict(t *testing.T) {
	s := memStore(t)
	for _, finish := range []string{"commit", "rollback"} {
		t.Run(finish, func(t *testing.T) {
			conflicts := s.Conflicts()
			holder, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			holder.RecordWrite("persons", 1)
			holder.RecordWrite("persons", 1) // recording twice is harmless
			queued, err := s.BeginSession()
			if err != nil {
				t.Fatal(err)
			}
			if err := queued.CheckEntity("persons", 1); !errors.Is(err, ErrConflict) {
				t.Fatalf("CheckEntity on the holder's entity = %v, want ErrConflict", err)
			}
			// The holder's own check never conflicts.
			if err := holder.CheckEntity("persons", 1); err != nil {
				t.Errorf("holder's own CheckEntity: %v", err)
			}
			// A session that does not hold the write latch records nothing.
			queued.RecordWrite("orders", 7)
			// A different entity of the SAME class is free: conflicts are
			// entity-granular, not class-granular.
			if err := queued.CheckEntity("persons", 2); err != nil {
				t.Errorf("CheckEntity on another entity of the holder's class: %v", err)
			}
			if err := queued.CheckEntity("orders", 1); err != nil {
				t.Errorf("CheckEntity on another class: %v", err)
			}
			if err := queued.CheckEntity("orders", 7); err != nil {
				t.Errorf("CheckEntity on an entity recorded by a non-holder: %v", err)
			}
			if got := s.Conflicts() - conflicts; got != 1 {
				t.Errorf("Conflicts() delta = %d, want 1", got)
			}
			if finish == "commit" {
				err = holder.Commit()
			} else {
				err = holder.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}
			s.latchMu.Lock()
			n := len(s.touched)
			s.latchMu.Unlock()
			if n != 0 {
				t.Errorf("%d recorded entities after the holder's %s, want 0", n, finish)
			}
			if err := queued.CheckEntity("persons", 1); err != nil {
				t.Errorf("CheckEntity after the holder's %s: %v", finish, err)
			}
			if err := queued.Rollback(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.sim")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				st, err := s.Structure("d")
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := st.Put([]byte(fmt.Sprintf("w%02d-%04d", w, i)), []byte("v")); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := s.Structure("d")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			k := fmt.Sprintf("w%02d-%04d", w, i)
			if _, ok, err := st.Get([]byte(k)); err != nil || !ok {
				t.Fatalf("missing committed key %s (ok=%v err=%v)", k, ok, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every commit survives reopen.
	s2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Structure("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st2.Get([]byte("w00-0000")); err != nil || !ok {
		t.Fatalf("committed key lost after reopen (ok=%v err=%v)", ok, err)
	}
}

func TestRollbackDiscardsChanges(t *testing.T) {
	s := memStore(t)
	tx, _ := s.Begin()
	st, _ := s.Structure("d")
	put(t, st, "committed", "yes")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, _ = s.Begin()
	st, _ = s.Structure("d")
	put(t, st, "uncommitted", "no")
	// Overwrite a committed key too.
	put(t, st, "committed", "overwritten")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	st, _ = s.Structure("d")
	if _, ok, _ := st.Get([]byte("uncommitted")); ok {
		t.Error("rolled-back insert visible")
	}
	v, ok, _ := st.Get([]byte("committed"))
	if !ok || string(v) != "yes" {
		t.Errorf("committed value after rollback = %q %v", v, ok)
	}
}

func TestRollbackManyPages(t *testing.T) {
	s := memStore(t)
	tx, _ := s.Begin()
	st, _ := s.Structure("d")
	for i := 0; i < 2000; i++ {
		put(t, st, fmt.Sprintf("base-%05d", i), "v")
	}
	tx.Commit()

	tx, _ = s.Begin()
	st, _ = s.Structure("d")
	for i := 0; i < 2000; i++ {
		put(t, st, fmt.Sprintf("extra-%05d", i), "v")
	}
	tx.Rollback()

	st, _ = s.Structure("d")
	c, err := st.First()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for ; c.Valid(); c.Next() {
		count++
	}
	if count != 2000 {
		t.Errorf("after rollback scan found %d, want 2000", count)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.sim")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	st, _ := s.Structure("persons")
	for i := 0; i < 1000; i++ {
		put(t, st, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Structure("persons")
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := st2.Get([]byte("k0500"))
	if err != nil || !ok || string(v) != "v500" {
		t.Fatalf("after reopen get = %q %v %v", v, ok, err)
	}
}

// TestCrashRecovery simulates a crash after commit but before checkpoint:
// the database file is stale, the WAL holds the committed batch, and
// reopening must replay it.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.sim")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	st, _ := s.Structure("d")
	put(t, st, "survives", "crash")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: abandon the store without Close (no checkpoint).
	// The WAL file must exist and be non-empty.
	if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() == 0 {
		t.Fatalf("wal missing before crash: %v", err)
	}

	s2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Structure("d")
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := st2.Get([]byte("survives"))
	if err != nil || !ok || string(v) != "crash" {
		t.Fatalf("after crash recovery get = %q %v %v", v, ok, err)
	}
}

// TestTornCommitIgnored verifies that an incomplete WAL batch (no commit
// record) is discarded at recovery.
func TestTornCommitIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.sim")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	st, _ := s.Structure("d")
	put(t, st, "a", "committed")
	tx.Commit()
	// Abandon without checkpoint, then truncate the WAL mid-record to
	// simulate a torn write of a second transaction.
	fi, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path+".wal", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage that looks like a torn record.
	if _, err := f.WriteAt([]byte{1, 0, 0, 0, 9, 0, 0}, fi.Size()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, _ := s2.Structure("d")
	v, ok, _ := st2.Get([]byte("a"))
	if !ok || string(v) != "committed" {
		t.Fatalf("committed batch lost: %q %v", v, ok)
	}
}

func TestDropStructure(t *testing.T) {
	s := memStore(t)
	tx, _ := s.Begin()
	st, _ := s.Structure("temp")
	put(t, st, "k", "v")
	if err := s.DropStructure("temp"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	ok, err := s.HasStructure("temp")
	if err != nil || ok {
		t.Errorf("dropped structure still listed: %v %v", ok, err)
	}
	// Its pages are reusable: create another and write to it.
	tx, _ = s.Begin()
	st2, _ := s.Structure("temp2")
	put(t, st2, "k2", "v2")
	tx.Commit()
}

func TestNotADatabaseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, Options{}); err == nil {
		t.Error("junk file opened as database")
	}
}

// A checkpoint empties the WAL logically — no bytes in its cycle, and a
// reopen replays nothing and salvages nothing — while the file keeps its
// blocks for the next cycle to overwrite, within the kept length.
func TestCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.sim")
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tx, _ := s.Begin()
	st, _ := s.Structure("d")
	put(t, st, "k", "v")
	tx.Commit()
	before, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.log.Size(); n != 0 {
		t.Errorf("wal cycle after checkpoint holds %d bytes, want 0", n)
	}
	fi, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != before.Size() || fi.Size() > walKeep {
		t.Errorf("wal file after checkpoint = %d bytes, want the %d it had (kept length %d)", fi.Size(), before.Size(), walKeep)
	}
	l, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info, err := l.Recover(pager.NewChecksumFile(pager.NewMemByteFile()))
	if err != nil || info.Replayed != 0 || info.Salvaged {
		t.Errorf("reopened wal after checkpoint: %+v, %v; want nothing replayed or salvaged", info, err)
	}
}

func TestFreelistReuse(t *testing.T) {
	s := memStore(t)
	tx, _ := s.Begin()
	st, _ := s.Structure("big")
	for i := 0; i < 3000; i++ {
		put(t, st, fmt.Sprintf("k%05d", i), "some moderately sized value for page fill")
	}
	tx.Commit()
	before := s.pool.NumPages()

	tx, _ = s.Begin()
	if err := s.DropStructure("big"); err != nil {
		t.Fatal(err)
	}
	st2, _ := s.Structure("big2")
	for i := 0; i < 3000; i++ {
		put(t, st2, fmt.Sprintf("k%05d", i), "some moderately sized value for page fill")
	}
	tx.Commit()
	after := s.pool.NumPages()
	// The second structure should predominantly reuse freed pages.
	if after > before+8 {
		t.Errorf("file grew from %d to %d pages despite freelist", before, after)
	}
}
