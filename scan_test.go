package sim

import (
	"context"
	"fmt"
	"testing"
)

// Full scans decode each record from the cell under the scan cursor
// instead of re-probing it through the read view's record memo. These
// tests pin what that must preserve: the scan reads its statement's
// snapshot (or the writer's own uncommitted state), and it leaves the
// record memo and its counters alone.

// scanDB is the UNIVERSITY fixture plus 40 students, eight of them with
// an advisor, so a student scan walks a grown extent.
func scanDB(t *testing.T) *Database {
	t.Helper()
	db := universityDB(t, Config{})
	for i := 0; i < 40; i++ {
		advisor := "" // advisees is MAX 10: Bob Stone takes the first eight
		if i < 8 {
			advisor = `, advisor := instructor with (name = "Bob Stone")`
		}
		mustExec(t, db, fmt.Sprintf(`Insert student (name := "Scan %02d", soc-sec-no := %d, student-nbr := %d%s).`,
			i, 600000000+i, 3000+i, advisor))
	}
	return db
}

const fullScanQuery = `From student Retrieve name, student-nbr, name of advisor.`

// TestFullScanReadsPinnedSnapshot: a read-only transaction's full scan
// returns its Begin-time values after a Modify and an Insert commit, and a
// writer's full scan sees its own uncommitted Modify.
func TestFullScanReadsPinnedSnapshot(t *testing.T) {
	db := scanDB(t)
	ctx := context.Background()
	before := fmt.Sprint(rowStrings(mustQuery(t, db, fullScanQuery)))

	ro, err := db.Begin(ctx, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	mustExec(t, db, `Modify student (student-nbr := 1999, advisor := instructor with (name = "Ann Smith")) Where name = "John Doe".`)
	mustExec(t, db, `Insert student (name := "Late Comer", soc-sec-no := 699999999, student-nbr := 3999).`)
	after := fmt.Sprint(rowStrings(mustQuery(t, db, fullScanQuery)))
	if after == before {
		t.Fatal("the committed Modify and Insert changed nothing the scan returns")
	}
	r, err := ro.Query(ctx, fullScanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowStrings(r)); got != before {
		t.Errorf("full scan at the pinned snapshot:\n%s\nwant the Begin-time rows:\n%s", got, before)
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(ctx, `Modify student (student-nbr := 1998) Where name = "Mary Major".`); err != nil {
		t.Fatal(err)
	}
	r, err = tx.Query(ctx, `From student Retrieve student-nbr Where name = "Mary Major".`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowStrings(r)); got != "[[1998]]" {
		t.Errorf("writer's own full scan reads %s, want its uncommitted 1998", got)
	}
}

// TestFullScanBypassesRecordCache: a full scan that walks no EVA reads
// every record from its cursor, so the record-read counters do not move.
func TestFullScanBypassesRecordCache(t *testing.T) {
	db := scanDB(t)
	for _, q := range []string{
		`From person Retrieve name, soc-sec-no, profession.`,
		`From student Retrieve name, student-nbr Where student-nbr > 3010.`,
		`From teaching-assistant Retrieve name, teaching-load, salary.`,
	} {
		before := db.Stats().Cache
		r := mustQuery(t, db, q)
		if r.NumRows() == 0 {
			t.Fatalf("%q returned no rows", q)
		}
		if got := db.Stats().Cache; got != before {
			t.Errorf("%q: record reads %+v -> %+v, want no traffic", q, before, got)
		}
	}
}
