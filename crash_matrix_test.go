package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"sim/internal/dmsii"
	"sim/internal/fault"
	"sim/internal/pager"
	"sim/internal/wal"
)

// openFaultDB assembles a full Database over fault-wrapped in-memory
// storage: ChecksumFile(fault(dbImg)) for pages, WAL over fault(walImg).
// The images outlive the wrappers, so a crashed database can be
// "rebooted" by calling openFaultDB again with a fresh injector.
func openFaultDB(inj *fault.Injector, dbImg, walImg *pager.MemByteFile) (*Database, error) {
	file := pager.NewChecksumFile(fault.Wrap("db", dbImg, inj))
	log, err := wal.OpenBacking(fault.Wrap("wal", walImg, inj))
	if err != nil {
		return nil, err
	}
	store, err := dmsii.OpenFiles(file, log, dmsii.Options{})
	if err != nil {
		return nil, err
	}
	return openStore(store, Config{})
}

// dumpFlightOnFailure logs the recovered database's flight recorder when
// the test has failed and, if SIM_FLIGHT_DUMP names a file, appends the
// dump there so CI can upload it as an artifact. Call via defer with a
// pointer to the variable holding the most recently rebooted database.
func dumpFlightOnFailure(t *testing.T, dbp **Database) {
	if !t.Failed() || dbp == nil || *dbp == nil {
		return
	}
	dump := (*dbp).FlightRecorder().Dump()
	t.Logf("flight recorder at failure:\n%s", dump)
	path := os.Getenv("SIM_FLIGHT_DUMP")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("SIM_FLIGHT_DUMP: %v", err)
		return
	}
	fmt.Fprintf(f, "=== %s ===\n%s\n", t.Name(), dump)
	f.Close()
}

// walRecordSize is one WAL page record, header (13 bytes) and image: a
// commit group's write torn after it stops exactly on a record boundary.
// The other torn sizes: 0 = clean cut at the op boundary, 13 = inside a
// WAL record header, PageSize+1 = inside a page slot's data.
const walRecordSize = 13 + pager.PageSize

const crashMatrixSchema = `Class Item ( num: integer unique required; tag: string[16] );`

// crashStep is one transaction of the crash-matrix workload plus a model
// of its effect on a num->tag map, so any committed prefix's expected
// state can be computed without the database.
type crashStep struct {
	dml   string
	apply func(m map[string]string)
}

func crashMatrixSteps() []crashStep {
	set := func(m map[string]string, num int, tag string) { m[fmt.Sprint(num)] = tag }
	retagBelow := func(m map[string]string, n int, tag string) {
		for k := range m {
			var num int
			fmt.Sscan(k, &num)
			if num < n {
				m[k] = tag
			}
		}
	}
	return []crashStep{
		{`Insert item (num := 1, tag := "t1").`, func(m map[string]string) { set(m, 1, "t1") }},
		{`Insert item (num := 2, tag := "t2").`, func(m map[string]string) { set(m, 2, "t2") }},
		{`Modify item (tag := "m4") Where num < 3.`, func(m map[string]string) { retagBelow(m, 3, "m4") }},
		{`Insert item (num := 5, tag := "t5").`, func(m map[string]string) { set(m, 5, "t5") }},
		{`Modify item (tag := "m6") Where num < 6.`, func(m map[string]string) { retagBelow(m, 6, "m6") }},
		{`Insert item (num := 7, tag := "t7").`, func(m map[string]string) { set(m, 7, "t7") }},
	}
}

// prefixState returns the expected num->tag map after the first k steps
// of the workload, where step 1 is DefineSchema and steps 2..n+1 are the
// transactions.
func prefixState(k int, steps []crashStep) map[string]string {
	m := make(map[string]string)
	for i := 0; i < k-1 && i < len(steps); i++ {
		steps[i].apply(m)
	}
	return m
}

// crashCheckpointAfter is the transaction after which the crash workloads
// checkpoint: the WAL starts its second cycle over the first one's bytes,
// so every later crash boundary tears a group over old-cycle records.
const crashCheckpointAfter = 3

// runCrashWorkload runs the workload until the first failure, returning
// the number of steps (schema batch = step 1) that reported success. A
// checkpoint partway through is not a step.
func runCrashWorkload(inj *fault.Injector, dbImg, walImg *pager.MemByteFile) int {
	db, err := openFaultDB(inj, dbImg, walImg)
	if err != nil {
		return 0
	}
	if err := db.DefineSchema(crashMatrixSchema); err != nil {
		return 0
	}
	done := 1
	for i, st := range crashMatrixSteps() {
		if _, err := db.Exec(st.dml); err != nil {
			break
		}
		done++
		if i+1 == crashCheckpointAfter && db.Checkpoint() != nil {
			break
		}
	}
	return done
}

// readItems returns the database's num->tag map, or nil if the schema
// never committed.
func readItems(t *testing.T, db *Database) map[string]string {
	t.Helper()
	if db.Catalog().Class("item") == nil {
		return nil
	}
	r, err := db.Query(`From item Retrieve num, tag.`)
	if err != nil {
		t.Fatalf("reading items: %v", err)
	}
	m := make(map[string]string)
	for _, row := range r.Rows() {
		m[row[0].String()] = row[1].String()
	}
	return m
}

func equalState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCrashMatrix crashes the full stack at EVERY mutating-operation
// boundary of a multi-transaction workload — including torn-write
// variants that persist only a prefix of the crashing write — reopens
// the frozen image, and asserts the recovered database equals a
// consistent prefix of the committed transactions: exactly the steps
// that reported success, plus at most the one in flight (which is
// allowed to have become durable if the crash landed after its WAL
// sync). Scrub and CheckIntegrity must pass on every recovered image.
// The workload checkpoints partway through, so the boundaries after it
// crash over a reused WAL.
//
// By default the matrix samples every third boundary; SIM_CRASH_MATRIX=full
// (the CI crash-matrix job) covers every boundary.
func TestCrashMatrix(t *testing.T) {
	steps := crashMatrixSteps()

	// Count run: no faults, record the total mutating operations and
	// validate the workload model against the real engine.
	countInj := fault.NewInjector()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	if got := runCrashWorkload(countInj, dbImg, walImg); got != len(steps)+1 {
		t.Fatalf("fault-free workload completed %d/%d steps", got, len(steps)+1)
	}
	totalOps := countInj.Ops()
	if totalOps < 20 {
		t.Fatalf("workload issued only %d mutating ops; matrix would be trivial", totalOps)
	}
	check, err := openFaultDB(fault.NewInjector(), dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	if got := readItems(t, check); !equalState(got, prefixState(len(steps)+1, steps)) {
		t.Fatalf("workload model mismatch: engine %v, model %v", got, prefixState(len(steps)+1, steps))
	}

	stride := uint64(3)
	if os.Getenv("SIM_CRASH_MATRIX") == "full" {
		stride = 1
	}
	tornSizes := []int{0, 13, pager.PageSize + 1, walRecordSize}

	var cur *Database // most recently rebooted database, for the failure dump
	defer dumpFlightOnFailure(t, &cur)
	runs := 0
	for c := uint64(1); c <= totalOps; c += stride {
		for _, torn := range tornSizes {
			runs++
			name := fmt.Sprintf("crash at op %d torn %d", c, torn)
			inj := fault.NewInjector()
			if torn == 0 {
				inj.CrashAt(c)
			} else {
				inj.CrashAtTorn(c, torn)
			}
			img, wimg := pager.NewMemByteFile(), pager.NewMemByteFile()
			succeeded := runCrashWorkload(inj, img, wimg)
			if !inj.Crashed() {
				t.Fatalf("%s: crash never fired (%d ops this run)", name, inj.Ops())
			}

			// Reboot from the frozen image and identify the recovered state.
			db2, err := openFaultDB(fault.NewInjector(), img, wimg)
			if err != nil {
				t.Fatalf("%s: reopen after crash: %v", name, err)
			}
			cur = db2
			got := readItems(t, db2)
			matched := -1
			for _, k := range []int{succeeded, succeeded + 1} {
				want := prefixState(k, steps)
				if got == nil && k == 0 {
					matched = k
					break
				}
				if got != nil && k >= 1 && equalState(got, want) {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("%s: recovered state %v is not a consistent prefix (%d steps succeeded)",
					name, got, succeeded)
			}
			if got != nil {
				if err := db2.CheckIntegrity(); err != nil {
					t.Fatalf("%s: integrity after recovery: %v", name, err)
				}
			}
			rep, err := db2.Scrub()
			if err != nil {
				t.Fatalf("%s: scrub: %v", name, err)
			}
			if !rep.OK() {
				t.Fatalf("%s: scrub after recovery: %s", name, rep)
			}
			if err := db2.Close(); err != nil {
				t.Fatalf("%s: close after recovery: %v", name, err)
			}
		}
	}
	t.Logf("crash matrix: %d boundaries, %d runs (stride %d)", totalOps, runs, stride)
}

// TestCrashMatrixConcurrent is the concurrent-writer crash schedule:
// several autocommit writers and one explicit-transaction writer commit
// into the same class while the matrix freezes the image at sampled
// operation boundaries. Group commit makes the op schedule
// nondeterministic — committers share a leader's fsync, so which
// operation a given counter value lands on varies run to run — so the
// invariant is acknowledgment-based rather than step-based:
//
//   - every insert whose Exec (or Commit) returned success before the
//     crash must be present after recovery,
//   - every recovered row must be one the workload actually issued, and
//   - each explicit transaction's two rows recover both-or-neither.
//
// CheckIntegrity and Scrub must pass on every recovered image. The
// explicit-transaction writer checkpoints partway through, concurrently
// with the other writers, so later boundaries crash over a reused WAL.
func TestCrashMatrixConcurrent(t *testing.T) {
	const (
		autoWriters = 3
		perWriter   = 8
		pairs       = 4
		fillerBase  = 900
	)
	autoNum := func(g, i int) int { return 100 + g*perWriter + i }
	pairNums := func(p int) (int, int) { return 500 + 2*p, 500 + 2*p + 1 }

	// attempted is every row the workload could ever insert, with its tag:
	// anything recovered outside this set is corruption, not a lost ack.
	// Filler rows are added once their range is known (after the count run).
	attempted := make(map[string]string)
	for g := 0; g < autoWriters; g++ {
		for i := 0; i < perWriter; i++ {
			attempted[fmt.Sprint(autoNum(g, i))] = fmt.Sprintf("w%d-%d", g, i)
		}
	}
	for p := 0; p < pairs; p++ {
		a, b := pairNums(p)
		attempted[fmt.Sprint(a)] = fmt.Sprintf("p%d-a", p)
		attempted[fmt.Sprint(b)] = fmt.Sprintf("p%d-b", p)
	}

	// run drives the concurrent workload until it finishes or the crash
	// fires, returning the num->tag map of acknowledged-durable inserts.
	// Because group scheduling shifts where operations land, a crash point
	// past this run's natural op count might never fire; up to fillerMax
	// serial filler inserts push the counter until it does.
	run := func(inj *fault.Injector, dbImg, walImg *pager.MemByteFile, fillerMax int) map[string]string {
		acked := make(map[string]string)
		db, err := openFaultDB(inj, dbImg, walImg)
		if err != nil {
			return acked
		}
		if err := db.DefineSchema(crashMatrixSchema); err != nil {
			return acked
		}
		var mu sync.Mutex
		ack := func(num int, tag string) {
			mu.Lock()
			acked[fmt.Sprint(num)] = tag
			mu.Unlock()
		}
		insert := func(num int, tag string) error {
			_, err := db.Exec(fmt.Sprintf(`Insert item (num := %d, tag := %q).`, num, tag))
			return err
		}
		var wg sync.WaitGroup
		for g := 0; g < autoWriters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					num, tag := autoNum(g, i), fmt.Sprintf("w%d-%d", g, i)
					if insert(num, tag) != nil {
						return
					}
					ack(num, tag)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for p := 0; p < pairs; p++ {
				a, b := pairNums(p)
				atag, btag := fmt.Sprintf("p%d-a", p), fmt.Sprintf("p%d-b", p)
				tx, err := db.Begin(ctx)
				if err != nil {
					return
				}
				if _, err := tx.Exec(ctx, fmt.Sprintf(`Insert item (num := %d, tag := %q).`, a, atag)); err != nil {
					tx.Rollback()
					return
				}
				if _, err := tx.Exec(ctx, fmt.Sprintf(`Insert item (num := %d, tag := %q).`, b, btag)); err != nil {
					tx.Rollback()
					return
				}
				if tx.Commit() != nil {
					return
				}
				ack(a, atag)
				ack(b, btag)
				if p+1 == pairs/2 && db.Checkpoint() != nil {
					return
				}
			}
		}()
		wg.Wait()
		for num := fillerBase; !inj.Crashed() && num < fillerBase+fillerMax; num++ {
			tag := fmt.Sprintf("f%d", num)
			if insert(num, tag) == nil {
				ack(num, tag)
			}
		}
		return acked
	}

	// Count run: no faults. Validates the workload (everything acks, the
	// recovered image matches exactly) and sizes the crash-point range.
	countInj := fault.NewInjector()
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	if acked := run(countInj, dbImg, walImg, 0); len(acked) != len(attempted) {
		t.Fatalf("fault-free run acked %d/%d inserts", len(acked), len(attempted))
	}
	totalOps := countInj.Ops()
	if totalOps < 20 {
		t.Fatalf("workload issued only %d mutating ops; matrix would be trivial", totalOps)
	}
	check, err := openFaultDB(fault.NewInjector(), dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	if got := readItems(t, check); !equalState(got, attempted) {
		t.Fatalf("fault-free recovered state %v != attempted %v", got, attempted)
	}
	if err := check.Close(); err != nil {
		t.Fatal(err)
	}
	fillerMax := int(totalOps)
	for num := fillerBase; num < fillerBase+fillerMax; num++ {
		attempted[fmt.Sprint(num)] = fmt.Sprintf("f%d", num)
	}

	stride := uint64(5)
	if os.Getenv("SIM_CRASH_MATRIX") == "full" {
		stride = 1
	}
	var cur *Database
	defer dumpFlightOnFailure(t, &cur)
	runs := 0
	for c := uint64(2); c <= totalOps; c += stride {
		for _, torn := range []int{0, 13, walRecordSize} {
			runs++
			name := fmt.Sprintf("crash at op %d torn %d", c, torn)
			inj := fault.NewInjector()
			if torn == 0 {
				inj.CrashAt(c)
			} else {
				inj.CrashAtTorn(c, torn)
			}
			img, wimg := pager.NewMemByteFile(), pager.NewMemByteFile()
			acked := run(inj, img, wimg, fillerMax)
			if !inj.Crashed() {
				t.Fatalf("%s: crash never fired (%d ops this run)", name, inj.Ops())
			}

			db2, err := openFaultDB(fault.NewInjector(), img, wimg)
			if err != nil {
				t.Fatalf("%s: reopen after crash: %v", name, err)
			}
			cur = db2
			got := readItems(t, db2)
			if got == nil {
				if len(acked) != 0 {
					t.Fatalf("%s: schema lost in recovery but %d inserts had been acknowledged", name, len(acked))
				}
			} else {
				for num, tag := range acked {
					if got[num] != tag {
						t.Fatalf("%s: acknowledged insert num=%s tag=%q lost in recovery (found %q)", name, num, tag, got[num])
					}
				}
				for num, tag := range got {
					if attempted[num] != tag {
						t.Fatalf("%s: recovered row num=%s tag=%q was never written", name, num, tag)
					}
				}
				for p := 0; p < pairs; p++ {
					a, b := pairNums(p)
					_, hasA := got[fmt.Sprint(a)]
					_, hasB := got[fmt.Sprint(b)]
					if hasA != hasB {
						t.Fatalf("%s: explicit transaction %d recovered torn: first=%v second=%v", name, p, hasA, hasB)
					}
				}
				if err := db2.CheckIntegrity(); err != nil {
					t.Fatalf("%s: integrity after recovery: %v", name, err)
				}
			}
			rep, err := db2.Scrub()
			if err != nil {
				t.Fatalf("%s: scrub: %v", name, err)
			}
			if !rep.OK() {
				t.Fatalf("%s: scrub after recovery: %s", name, rep)
			}
			if err := db2.Close(); err != nil {
				t.Fatalf("%s: close after recovery: %v", name, err)
			}
		}
	}
	t.Logf("concurrent crash matrix: %d boundaries, %d runs (stride %d)", totalOps, runs, stride)
}

// A bit flipped at rest in the database file must never be silently
// served: reads fail with ErrCorruptPage and Scrub names the page.
func TestCorruptPageDetectedNotServed(t *testing.T) {
	dbImg, walImg := pager.NewMemByteFile(), pager.NewMemByteFile()
	db, err := openFaultDB(fault.NewInjector(), dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema(crashMatrixSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		mustExec(t, db, fmt.Sprintf(`Insert item (num := %d, tag := "tag%04d").`, i+10, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in a page the record scan actually reads. Which page
	// holds item records depends on the physical mapping, so probe from
	// the tail: damage a page, reopen, and keep the damage once the full
	// scan trips over it (restoring pages that turn out to be index or
	// directory pages the scan does not touch, or pages needed at open).
	const slot = int64(pager.PageSize) + 4
	size, _ := dbImg.Size()
	hit := int64(-1)
	for p := size/slot - 1; p >= 1 && hit < 0; p-- {
		off := p*slot + 2048
		var orig [1]byte
		dbImg.ReadAt(orig[:], off)
		dbImg.WriteAt([]byte{orig[0] ^ 0x40}, off)
		db2, err := openFaultDB(fault.NewInjector(), dbImg, walImg)
		if err == nil {
			if _, qerr := db2.Query(`From item Retrieve num, tag.`); qerr != nil {
				if !errors.Is(qerr, pager.ErrCorruptPage) {
					t.Fatalf("scan over damaged page %d = %v, want ErrCorruptPage in the chain", p, qerr)
				}
				hit = p
				break
			}
		} else if !errors.Is(err, pager.ErrCorruptPage) {
			t.Fatalf("reopen with damaged page %d = %v", p, err)
		}
		dbImg.WriteAt(orig[:], off) // page not on the scan path; restore
	}
	if hit < 0 {
		t.Fatal("no page damage ever surfaced in the record scan")
	}

	// Scrub over the damaged image names the page.
	db3, err := openFaultDB(fault.NewInjector(), dbImg, walImg)
	if err != nil {
		t.Fatal(err)
	}
	defer dumpFlightOnFailure(t, &db3)
	rep, err := db3.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub missed the flipped bit")
	}
	found := false
	for _, id := range rep.Corrupt {
		if int64(id) == hit {
			found = true
		}
	}
	if !found {
		t.Errorf("scrub reported pages %v, want %d", rep.Corrupt, hit)
	}
}
