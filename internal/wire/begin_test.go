package wire

import "testing"

func TestBeginRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		id    uint64
		flags byte
	}{
		{0, 0},
		{42, 0},
		{42, BeginReadOnly},
		{1<<63 + 7, BeginReadOnly},
	} {
		b := EncodeBegin(tc.id, tc.flags)
		id, flags, err := DecodeBegin(b)
		if err != nil {
			t.Fatalf("DecodeBegin(%v/%v): %v", tc.id, tc.flags, err)
		}
		if id != tc.id || flags != tc.flags {
			t.Fatalf("round trip (%d, %d) → (%d, %d)", tc.id, tc.flags, id, flags)
		}
	}
}

// TestBeginFlaglessCompat: a Begin payload without a flag byte (a bare
// request ID) decodes as a read-write transaction.
func TestBeginFlaglessCompat(t *testing.T) {
	id, flags, err := DecodeBegin(EncodeRequest(99, nil))
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 || flags != 0 {
		t.Fatalf("flagless begin → (%d, %d), want (99, 0)", id, flags)
	}
}

func TestBeginRejectsGarbage(t *testing.T) {
	// Unknown flag bits must be refused, not silently ignored: a future
	// client asking for semantics this server lacks must hear "no".
	if _, _, err := DecodeBegin(append(EncodeRequest(1, nil), 0x80)); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
	// Trailing bytes after the flag byte are a framing error.
	if _, _, err := DecodeBegin(append(EncodeRequest(1, nil), BeginReadOnly, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
