package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"sim/internal/obs"
)

func sampleTraceInfo() TraceInfo {
	return TraceInfo{
		ParseNS:     120_000,
		PlanNS:      48_000,
		ExecNS:      2_400_000,
		TotalNS:     2_600_000,
		Rows:        3,
		Instances:   99,
		PagerHits:   17,
		PagerMisses: 2,
		CacheHits:   40,
		CacheMisses: 1,
		PlanCached:  true,
		Rendered:    "student (TYPE 1) via scan student  rows=3 wall=2.4ms\n",
	}
}

func TestResultTraceRoundTrip(t *testing.T) {
	in := sampleResult(t)
	ti := sampleTraceInfo()
	out, got, err := DecodeResultTrace(EncodeResultTrace(in, ti))
	if err != nil {
		t.Fatal(err)
	}
	if got != ti {
		t.Fatalf("trace diverged:\n%+v\nvs\n%+v", got, ti)
	}
	if out.Format() != in.Format() {
		t.Fatalf("result diverged:\n%s\nvs\n%s", out.Format(), in.Format())
	}
	if got.Total() != 2600*time.Microsecond {
		t.Errorf("Total() = %v", got.Total())
	}
	for _, want := range []string{"parse 120µs", "plan 48µs (cached)", "rows=3"} {
		if !strings.Contains(got.String(), want) {
			t.Errorf("String() = %q missing %q", got.String(), want)
		}
	}
}

func TestResultTraceEmptyRendered(t *testing.T) {
	ti := TraceInfo{Rows: 1}
	_, got, err := DecodeResultTrace(EncodeResultTrace(sampleResult(t), ti))
	if err != nil {
		t.Fatal(err)
	}
	if got != ti {
		t.Fatalf("trace diverged: %+v vs %+v", got, ti)
	}
}

// TestResultTraceDeadSlot: the eighth field of the layout is written as 1
// and ignored on decode, so a frame carrying any count there (an encoder
// that still filled it) decodes to the same trace.
func TestResultTraceDeadSlot(t *testing.T) {
	ti := sampleTraceInfo()
	enc := EncodeResultTrace(sampleResult(t), ti)
	res := EncodeResult(sampleResult(t))
	b := binary.AppendUvarint(nil, uint64(len(res)))
	b = append(b, res...)
	for _, v := range []uint64{ti.ID, ti.ParseNS, ti.PlanNS, ti.ExecNS, ti.TotalNS, ti.Rows, ti.Instances} {
		b = binary.AppendUvarint(b, v)
	}
	if want := binary.AppendUvarint(bytes.Clone(b), 1); !bytes.HasPrefix(enc, want) {
		t.Fatal("encoder does not write 1 in the dead slot")
	}
	b = binary.AppendUvarint(b, 4)
	b = append(b, enc[len(b):]...)
	_, got, err := DecodeResultTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != ti {
		t.Fatalf("trace diverged:\n%+v\nvs\n%+v", got, ti)
	}
}

// TestFromQueryTrace checks the flattening of an executed trace,
// including that the rendered tree rides along.
func TestFromQueryTrace(t *testing.T) {
	qt := &obs.QueryTrace{
		Statement: "From student Retrieve name.",
		Parse:     time.Millisecond,
		Plan:      2 * time.Millisecond,
		Exec:      3 * time.Millisecond,
		Total:     7 * time.Millisecond,
		Rows:      5,
		Instances: 9,
		PagerHits: 11,
		Nodes: []obs.NodeTrace{
			{Label: "student", Type: "TYPE 1", Access: "scan student", Instances: 9, Entities: 9, Wall: 3 * time.Millisecond},
		},
	}
	ti := FromQueryTrace(qt)
	if ti.ParseNS != uint64(time.Millisecond) || ti.Rows != 5 || ti.Instances != 9 || ti.PagerHits != 11 {
		t.Errorf("flattened trace = %+v", ti)
	}
	for _, want := range []string{"From student Retrieve name.", "student (TYPE 1) via scan student", "rows=9"} {
		if !strings.Contains(ti.Rendered, want) {
			t.Errorf("Rendered missing %q:\n%s", want, ti.Rendered)
		}
	}
}

// TestDecodeResultTraceRejectsCorruption truncates a valid encoding at
// every offset; the decoder must error or succeed but never panic.
func TestDecodeResultTraceRejectsCorruption(t *testing.T) {
	b := EncodeResultTrace(sampleResult(t), sampleTraceInfo())
	for i := 0; i < len(b); i++ {
		DecodeResultTrace(b[:i])
		mut := bytes.Clone(b)
		mut[i] ^= 0x80
		DecodeResultTrace(mut)
	}
}
