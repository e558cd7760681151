package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeRun runs one workload at a fortieth of its size with 200 ms
// windows, traced, so that every metric of both lists is measured.
func smokeRun(t *testing.T, w workload) *result {
	t.Helper()
	res, err := run(runConfig{
		w: w, seed: 1, window: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		trace: true, scale: 40, setups: 2, tmp: t.TempDir(),
		drillTxns: 100, budget: smokeBudget, // and no separation gate: the windows are too short for checkpoints and evictions
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// Every metric BENCHMARK.json declares is emitted once per workload,
// finite, with its unit; nothing undeclared is emitted; gates pass.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	declared := readSpec(t)
	for _, w := range workloads {
		res := smokeRun(t, w)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: incorrect: %d failed, gates: %s, errors: %v", w.Name, res.Failed, res.failedGates(), res.Errors)
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			line, err := res.driverLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := declared.EndToEnd
			if traced {
				want = declared.PerLayer
			}
			if out.Attempted < 1 || len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: attempted=%d, %d metrics, want %d", w.Name, traced, out.Attempted, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, *got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && *got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
		// A real run must stay within [0.85, 1.15]. At a fortieth of the
		// data a point read takes half the time while what db.Query does
		// around its stages (statement lock, snapshot pin, plan-cache
		// lookup, latency histogram) takes the same, so the floor is lower.
		if w.Name == pointRead || w.Name == analytic {
			if c := res.PerLayer["sim.stage_coverage"].Value; c < 0.65 || c > 1.15 {
				t.Errorf("%s: sim.stage_coverage = %.3f, want within [0.65, 1.15]: the staged calls no longer sum to db.Query", w.Name, c)
			}
		}
	}
}

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json is what the tables in metrics.go and run.go declare, and
// stays inside the limits the driver refuses a file for.
func TestSpecMatchesTables(t *testing.T) {
	want, err := spec(driverSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != strings.TrimSpace(string(want)) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	s := readSpec(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		check(m.Name)
		if def := perLayerDefs[m.Name]; def.Moves == "" || def.On == "" {
			t.Errorf("%s: no prediction (end-to-end metric and workload it should move)", m.Name)
		} else if _, ok := endToEndDefs[def.Moves]; !ok {
			t.Errorf("%s: moves %q, which is no end-to-end metric", m.Name, def.Moves)
		}
	}
	if len(s.PerLayer) > 128 || len(s.EndToEnd) > 16 || len(s.Workloads) > 8 || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Error("BENCHMARK.json exceeds the driver's limits")
	}
}

// The same seed gives the same operation stream, another seed another.
func TestStreamsDependOnlyOnTheSeed(t *testing.T) {
	for _, w := range workloads {
		d := w.data.scaled(40)
		hash := func(seed int64) string {
			var h []string
			for _, g := range w.gens(d, seed) {
				h = append(h, streamHash(g, 500))
			}
			return strings.Join(h, ",")
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: seed 1 gave two different streams", w.Name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
	var a, b []string
	univM.scaled(40).statements(1, func(s string) error { a = append(a, s); return nil })
	univM.scaled(40).statements(2, func(s string) error { b = append(b, s); return nil })
	if strings.Join(a, "") == strings.Join(b, "") {
		t.Error("seeds 1 and 2 built the same dataset")
	}
}

// A corrupted expected result makes the reference gate fail.
func TestCorruptedReferenceFailsTheGate(t *testing.T) {
	w, _ := findWorkload(pointRead)
	d := w.data.scaled(40)
	e, err := setUp(w, d, t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref, err := answerReference(e.primary.db, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(e, ref); err != nil {
		t.Fatalf("clean reference: %v", err)
	}
	for q, want := range ref {
		ref[q] = want[:len(want)-1] // one expected result loses its last byte
		break
	}
	if err := checkReference(e, ref); err == nil {
		t.Error("the gate accepted a corrupted expected result")
	}
}

// The durability drill's storage loses exactly the bytes never synced.
func TestDrillStorageDiscardsOnlyUnsyncedBytes(t *testing.T) {
	f := &bufFile{}
	f.WriteAt([]byte("durable"), 0)
	f.Sync()
	f.WriteAt([]byte("VOLATIL"), 0)
	got := make([]byte, 7)
	f.crash().ReadAt(got, 0)
	if string(got) != "durable" {
		t.Errorf("after the crash the file reads %q, want the synced bytes", got)
	}
}

// quartiles follow Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// tail reports the highest percentile that still has ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	v := make([]int64, 200)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got, pct := tail(v); got != 190 || pct != 95 {
		t.Errorf("tail of 200 samples = %v at p%v, want 190 at p95", got, pct)
	}
	v = make([]int64, 2000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got, pct := tail(v); got != 1980 || pct != 99 {
		t.Errorf("tail of 2000 samples = %v at p%v, want 1980 at p99", got, pct)
	}
}
