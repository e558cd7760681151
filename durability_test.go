package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sim/internal/pager"
	"sim/internal/university"
	"sim/internal/wal"
)

// Full-stack crash consistency: commit through the public API, "crash"
// without Close (no checkpoint), reopen, and verify both schema and data
// recovered from the WAL.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.sim")
	db, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert department (dept-nbr := 100, name := "Physics").`)
	mustExec(t, db, `Insert instructor (name := "Prof", soc-sec-no := 1, employee-nbr := 1001,
	   assigned-department := department with (name = "Physics")).`)
	// Crash: abandon without Close. The WAL must carry the committed state.
	if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() == 0 {
		t.Fatalf("wal empty before simulated crash: %v", err)
	}

	db2, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, `From instructor Retrieve name, name of assigned-department.`)
	expectRows(t, r, [][]string{{"Prof", "Physics"}})
	// Still fully writable, with surrogates continuing.
	mustExec(t, db2, `Insert instructor (name := "Prof2", soc-sec-no := 2, employee-nbr := 1002).`)
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// A rolled-back statement must not reach the file even across reopen.
func TestFailedStatementInvisibleAfterReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rb.sim")
	db, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert person (name := "Keeper", soc-sec-no := 7).`)
	if _, err := db.Exec(`Insert person (name := "Dup", soc-sec-no := 7).`); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := mustQuery(t, db2, `From person Retrieve name.`)
	expectRows(t, r, [][]string{{"Keeper"}})
}

// An explicit checkpoint empties the WAL's cycle and the database stays
// consistent; the WAL file keeps its length for the next cycle.
func TestCheckpointThroughAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.sim")
	db, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(`Class Box ( label: string[10] );`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf(`Insert box (label := "b%02d").`, i))
	}
	before, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().WAL.SizeBytes; n != 0 {
		t.Fatalf("wal cycle after checkpoint holds %d bytes, want 0", n)
	}
	fi, err := os.Stat(path + ".wal")
	if err != nil || fi.Size() == 0 || fi.Size() > before.Size() {
		t.Fatalf("wal file after checkpoint: %v, %d bytes; want the %d it had", err, fi.Size(), before.Size())
	}
	l, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	info, err := l.Recover(pager.NewMemFile())
	l.Close()
	if err != nil || info.Replayed != 0 || info.Salvaged {
		t.Fatalf("reopened wal after checkpoint: %+v, %v; want nothing replayed or salvaged", info, err)
	}
	r := mustQuery(t, db, `From box Retrieve Table Distinct count(label of box).`)
	expectRows(t, r, [][]string{{"50"}})
}

// Many transactions across many reopens: surrogate continuity and stats.
func TestRepeatedReopenSoak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "soak.sim")
	total := 0
	for round := 0; round < 5; round++ {
		db, err := Open(path, Config{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			if err := db.DefineSchema(`Class Item ( n: integer unique required );`); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			mustExec(t, db, fmt.Sprintf(`Insert item (n := %d).`, round*100+i))
			total++
		}
		r := mustQuery(t, db, `From item Retrieve Table Distinct count(n of item).`)
		if got := r.Rows()[0][0].String(); got != fmt.Sprint(total) {
			t.Fatalf("round %d: count = %s, want %d", round, got, total)
		}
		if round%2 == 0 {
			db.Close() // clean close (checkpoint)
		} // odd rounds: crash (recovery path)
	}
}

// Concurrent autocommit writers on a file-backed database: group commit
// lets them share fsyncs, but the WAL still counts exactly one commit per
// acknowledged Exec, and every acknowledged row is present. How many
// fsyncs were shared depends on scheduling and is not asserted.
func TestGroupCommitCountsEveryAck(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "group.sim"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(`Class Ledger ( entry-no: integer unique required; amount: integer );`); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 25
	before := db.Stats().WAL.Commits
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Exec(fmt.Sprintf(`Insert ledger (entry-no := %d, amount := %d).`, g*per+i, i)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Stats().WAL.Commits - before; got != writers*per {
		t.Fatalf("WAL recorded %d commits, want %d acknowledged", got, writers*per)
	}
	if got := mustQuery(t, db, `From ledger Retrieve entry-no.`).NumRows(); got != writers*per {
		t.Fatalf("ledger has %d entries, want %d", got, writers*per)
	}
}

func TestOpenRejectsGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil {
		t.Error("garbage file opened as a database")
	}
}

// Mapper API smoke coverage: Roles.
func TestMapperRolesAPI(t *testing.T) {
	db := universityDB(t, Config{})
	m := db.Mapper()
	cat := db.Catalog()
	ss, err := m.Surrogates(cat.Class("teaching-assistant"))
	if err != nil || len(ss) != 1 {
		t.Fatalf("TA scan: %v %v", ss, err)
	}
	roles, err := m.Roles(cat.Class("person"), ss[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(roles) != 4 { // person, student, instructor, teaching-assistant
		t.Errorf("Tina's roles = %v", roles)
	}
}

// Bare boolean attribute as a selection condition.
func TestBareBooleanCondition(t *testing.T) {
	db, err := Open("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineSchema(`Class Flag ( fname: string[10]; active: boolean );`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `Insert flag (fname := "yes", active := true).`)
	mustExec(t, db, `Insert flag (fname := "no", active := false).`)
	r := mustQuery(t, db, `From flag Retrieve fname Where active.`)
	expectRows(t, r, [][]string{{"yes"}})
}
