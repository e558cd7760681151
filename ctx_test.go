package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// QueryCtx/ExecCtx honour cancellation: a context cancelled before the
// executor's outer loop starts surfaces ctx.Err() instead of a result.

func TestQueryCtxCancelled(t *testing.T) {
	db := universityDB(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryCtx(ctx, `From Student Retrieve Name, Name of Advisor.`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err %v, want context.Canceled", err)
	}
	// The database is unaffected: the same query works afterwards.
	if _, err := db.Query(`From Student Retrieve Name.`); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

func TestExecCtxCancelled(t *testing.T) {
	db := universityDB(t, Config{})
	before := mustQuery(t, db, `From Student Retrieve Name.`).NumRows()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecCtx(ctx, `Modify Student (Name := "Gone") Where Student-Nbr >= 1001.`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exec: err %v, want context.Canceled", err)
	}
	// The cancelled update rolled back: nothing was renamed.
	r := mustQuery(t, db, `From Student Retrieve Name Where Name = "Gone".`)
	if r.NumRows() != 0 {
		t.Fatalf("cancelled Modify left %d renamed students", r.NumRows())
	}
	if got := mustQuery(t, db, `From Student Retrieve Name.`).NumRows(); got != before {
		t.Fatalf("student count changed across cancelled exec: %d -> %d", before, got)
	}
}

// countdownCtx is never Done, but its Err turns context.Canceled once it
// has been called more than limit times (limit < 0: never). It counts
// every call, so a run with no limit measures how often an operation
// consults its context.
type countdownCtx struct {
	context.Context
	done  chan struct{}
	limit int64
	calls atomic.Int64
}

func newCountdownCtx(limit int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{}), limit: limit}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if n := c.calls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestExecCtxCancelledInAssignmentSelection: an EVA assignment's entity
// selection (`x := include c with (...)`) observes the statement's
// context between candidates, so cancellation stops a Modify inside it
// and the statement rolls back.
func TestExecCtxCancelledInAssignmentSelection(t *testing.T) {
	const fillers = 20
	build := func() *Database {
		db := universityDB(t, Config{})
		for i := 0; i < fillers; i++ {
			mustExec(t, db, fmt.Sprintf(`Insert course (course-no := %d, title := "Filler %d", credits := 1).`, 500+i, i))
		}
		return db
	}
	const stmt = `Modify student (courses-enrolled := include course with (credits < 2)) Where student-nbr = 1500.`
	const enrolled = `From student Retrieve name, count(courses-enrolled) Order By name.`

	// Measure how often the statement consults its context on a twin.
	twin := build()
	probe := newCountdownCtx(-1)
	if _, err := twin.ExecCtx(probe, stmt); err != nil {
		t.Fatal(err)
	}
	calls := probe.calls.Load()
	if calls < fillers {
		t.Fatalf("the statement consulted its context %d times; the assignment's selection over %d+ courses must check it per candidate", calls, fillers)
	}

	// Cancel during the last checks: the assignment's course selection.
	db := build()
	before := mustQuery(t, db, enrolled).Format()
	_, err := db.ExecCtx(newCountdownCtx(calls-5), stmt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecCtx cancelled inside the assignment selection: err %v, want context.Canceled", err)
	}
	if after := mustQuery(t, db, enrolled).Format(); after != before {
		t.Fatalf("cancelled Modify changed enrollments:\n%s\nwant:\n%s", after, before)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after cancelled Modify: %v", err)
	}
}

func TestQueryCtxNilSafe(t *testing.T) {
	db := universityDB(t, Config{})
	// A background (non-cancellable) context takes the fast path.
	r, err := db.QueryCtx(context.Background(), `From Student Retrieve Name.`)
	if err != nil || r.NumRows() == 0 {
		t.Fatalf("background ctx query: rows=%v err=%v", r, err)
	}
}

// Run error paths (the -e script engine is built on the same semantics):
// a parse error anywhere aborts the whole script before anything runs; a
// runtime error at statement N returns the first N-1 results and leaves
// the effects of statements 1..N-1 in place (per-statement transactions).

func TestRunMidScriptParseError(t *testing.T) {
	db := universityDB(t, Config{})
	before := mustQuery(t, db, `From Course Retrieve Title.`).NumRows()
	results, err := db.Run(`
		Insert Course (Course-No := 900, Title := "Scripting", Credits := 3).
		From Course Retrieve garbage garbage;
	`)
	if err == nil {
		t.Fatal("script with a parse error succeeded")
	}
	if results != nil {
		t.Fatalf("parse error returned %d results, want none", len(results))
	}
	// Parsing happens before execution: the Insert never ran.
	if got := mustQuery(t, db, `From Course Retrieve Title.`).NumRows(); got != before {
		t.Fatalf("parse-failing script still executed statements: %d -> %d courses", before, got)
	}
}

func TestRunRuntimeErrorKeepsPrefix(t *testing.T) {
	db := universityDB(t, Config{})
	results, err := db.Run(`
		Insert Course (Course-No := 901, Title := "Persisted", Credits := 3).
		From Course Retrieve Title Where Course-No = 901.
		Insert Course (Course-No := 901, Title := "Duplicate", Credits := 3).
		From Course Retrieve Title.
	`)
	if err == nil {
		t.Fatal("duplicate unique key accepted")
	}
	if !strings.Contains(err.Error(), "statement 3") {
		t.Fatalf("error %q does not name the failing statement", err)
	}
	// The prefix ran: one nil (insert) and one retrieve result.
	if len(results) != 2 || results[0] != nil || results[1] == nil {
		t.Fatalf("results = %v, want [nil, retrieve]", results)
	}
	expectRows(t, results[1], [][]string{{"Persisted"}})
	// Statement 1 committed (per-statement transactions), statement 3
	// rolled back.
	r := mustQuery(t, db, `From Course Retrieve Title Where Course-No = 901.`)
	expectRows(t, r, [][]string{{"Persisted"}})
}
