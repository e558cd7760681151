package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name returns the same counter (schema rebuilds re-register).
	if again := r.Counter("sim_test_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	var external uint64 = 42
	r.CounterFunc("sim_test_ext_total", "func-backed", func() float64 { return float64(external) })
	r.GaugeFunc("sim_test_gauge", "a gauge", func() float64 { return 7 })
	snap := r.Snapshot()
	if snap["sim_test_total"] != 5 || snap["sim_test_ext_total"] != 42 || snap["sim_test_gauge"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	if got := r.Get("sim_test_ext_total"); got != 42 {
		t.Fatalf("Get = %v, want 42", got)
	}
	r.ResetCounters()
	if c.Load() != 0 {
		t.Fatal("ResetCounters left a counter nonzero")
	}
	if r.Get("sim_test_ext_total") != 42 {
		t.Fatal("ResetCounters touched a func-backed metric")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sim_test_seconds", "latencies")
	for _, d := range []time.Duration{500 * time.Nanosecond, 3 * time.Microsecond,
		2 * time.Millisecond, 30 * time.Second} {
		h.Observe(d)
	}
	h.Observe(-time.Second) // clamped to 0
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() <= 30*time.Second {
		t.Fatalf("sum = %v, want > 30s", h.Sum())
	}
}

// TestPrometheusFormat checks the text exposition parses line by line and
// the histogram invariants hold (cumulative buckets, +Inf == count).
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_a_total", "with\nnewline help").Add(3)
	r.GaugeFunc("sim_b", "gauge", func() float64 { return 1.5 })
	h := r.Histogram("sim_lat_seconds", "latency")
	h.Observe(2 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	var bucketCum []uint64
	var infVal, countVal uint64
	seenTypes := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition:\n%s", text)
		}
		if strings.HasPrefix(line, "# HELP ") {
			if strings.Contains(line, "\n") {
				t.Fatal("help text contains a newline")
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			seenTypes[parts[2]] = parts[3]
			continue
		}
		// Sample line: name{labels} value — value must parse as a float.
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		val, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:idx]
		switch {
		case strings.HasPrefix(name, "sim_lat_seconds_bucket{le=\"+Inf\"}"):
			infVal = uint64(val)
		case strings.HasPrefix(name, "sim_lat_seconds_bucket"):
			bucketCum = append(bucketCum, uint64(val))
		case name == "sim_lat_seconds_count":
			countVal = uint64(val)
		}
	}
	if seenTypes["sim_a_total"] != "counter" || seenTypes["sim_b"] != "gauge" || seenTypes["sim_lat_seconds"] != "histogram" {
		t.Fatalf("metric types = %v", seenTypes)
	}
	for i := 1; i < len(bucketCum); i++ {
		if bucketCum[i] < bucketCum[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", bucketCum)
		}
	}
	if infVal != countVal || countVal != 2 {
		t.Fatalf("+Inf bucket %d != count %d (want 2)", infVal, countVal)
	}
}

// TestRegistryRace hammers one registry from many goroutines: counters,
// histograms, re-registration, snapshots and exposition concurrently.
// Run with -race.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("sim_race_total", "shared").Inc()
				r.Counter(fmt.Sprintf("sim_race_%d_total", g), "private").Add(2)
				r.Histogram("sim_race_seconds", "shared").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("sim_race_total", "shared").Load(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("sim_race_seconds", "shared").Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(10 * time.Millisecond)
	if l.Observe("fast", time.Millisecond, 1, 0) {
		t.Fatal("fast query recorded")
	}
	for i := 0; i < slowLogCap+10; i++ {
		if !l.Observe(fmt.Sprintf("q%d", i), 20*time.Millisecond, i, 7) {
			t.Fatal("slow query not recorded")
		}
	}
	if l.Total() != slowLogCap+10 {
		t.Fatalf("total = %d, want %d", l.Total(), slowLogCap+10)
	}
	es := l.Entries()
	if len(es) != slowLogCap {
		t.Fatalf("retained = %d, want %d", len(es), slowLogCap)
	}
	if es[0].Statement != "q10" || es[len(es)-1].Statement != fmt.Sprintf("q%d", slowLogCap+9) {
		t.Fatalf("ring order wrong: first=%s last=%s", es[0].Statement, es[len(es)-1].Statement)
	}
	var disabled *SlowLog
	if disabled.Observe("x", time.Hour, 0, 0) || disabled.Total() != 0 || disabled.Entries() != nil {
		t.Fatal("nil SlowLog misbehaved")
	}
}

func TestTraceRender(t *testing.T) {
	tr := &QueryTrace{
		Statement: "From student Retrieve name.",
		Parse:     10 * time.Microsecond,
		Plan:      20 * time.Microsecond,
		Exec:      2 * time.Millisecond,
		Total:     2030 * time.Microsecond,
		Rows:      4,
		Instances: 9,
		Nodes: []NodeTrace{
			{Depth: 0, Label: "student", Type: "TYPE 1", Access: "scan student", Instances: 4, Entities: 4, Wall: 2 * time.Millisecond},
			{Depth: 1, Label: "advisor of student", Type: "TYPE 3", Instances: 5, Entities: 3, Wall: time.Millisecond},
		},
	}
	out := tr.Render()
	for _, want := range []string{"scan student", "rows=4", "TYPE 3", "entities=3",
		"parse 10µs", "exec 2.000ms", "rows: 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
