package sim

import (
	"testing"

	"sim/internal/university"
	"sim/internal/value"
)

// universityDB builds a fresh in-memory UNIVERSITY database (Figure 2)
// with a small faculty/student population used across the integration
// tests. Course credits are chosen so every enrolled student satisfies
// verify v1 (sum of credits >= 12).
func universityDB(t testing.TB, cfg Config) *Database {
	t.Helper()
	db, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatalf("define schema: %v", err)
	}
	for _, stmt := range university.Fixture {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("fixture %q: %v", stmt, err)
		}
	}
	return db
}

// rowStrings renders a result's rows for compact comparison.
func rowStrings(r *Result) [][]string {
	out := make([][]string, 0, r.NumRows())
	for _, row := range r.Rows() {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	return out
}

func expectRows(t *testing.T, r *Result, want [][]string) {
	t.Helper()
	got := rowStrings(r)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("row %d col %d: got %q, want %q (full row %v)", i, j, got[i][j], want[i][j], got[i])
			}
		}
	}
}

func mustQuery(t *testing.T, db *Database, dml string) *Result {
	t.Helper()
	r, err := db.Query(dml)
	if err != nil {
		t.Fatalf("Query(%q): %v", dml, err)
	}
	return r
}

func mustExec(t *testing.T, db *Database, dml string) int {
	t.Helper()
	n, err := db.Exec(dml)
	if err != nil {
		t.Fatalf("Exec(%q): %v", dml, err)
	}
	return n
}

func singleValue(t *testing.T, db *Database, dml string) value.Value {
	t.Helper()
	r := mustQuery(t, db, dml)
	if r.NumRows() != 1 || len(r.Rows()[0]) != 1 {
		t.Fatalf("Query(%q) returned %v, want a single value", dml, rowStrings(r))
	}
	return r.Rows()[0][0]
}
