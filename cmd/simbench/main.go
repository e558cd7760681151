// Command simbench regenerates every reproduced figure, example and
// performance claim of EXPERIMENTS.md.
//
// Usage:
//
//	simbench [-run id[,id...]] [-scale n] [-reps n] [-parallel n] [-net]
//
// Experiment ids: fig2, adds, dml, t1..t10, t12 (alias: txn), obs, obs2,
// fault, repl (alias: t14), failover (alias: t15), all (default). The t9
// run writes its table to BENCH_parallel.json, the t10 run (network mode,
// also selectable as -net) writes BENCH_net.json, the t12/txn run (group
// commit) writes BENCH_txn.json, the obs run (tracing overhead) writes
// BENCH_obs.json, the obs2 run (always-on flight recorder overhead)
// writes BENCH_obs2.json, the fault run (checksum/recovery/retry overhead)
// writes BENCH_fault.json, the repl/t14 run (read replicas, sized by
// -followers) writes BENCH_repl.json, the failover/t15 run
// (follower promotion) writes BENCH_failover.json, and the mvcc/t16 run
// (snapshot read scaling, entity-granularity write conflicts, version GC)
// writes BENCH_mvcc.json for machine consumption. Every artifact records
// allocs/op and bytes/op for its hot operations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sim/internal/bench"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (fig2,adds,dml,t1..t10,t12/txn,obs,obs2,fault,repl/t14,failover/t15,mvcc/t16)")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 5, "repetitions per measurement")
	parallel := flag.Int("parallel", 8, "maximum concurrent clients for t9/t10")
	writers := flag.Int("writers", 16, "maximum concurrent committers for t12")
	followers := flag.Int("followers", 4, "read replicas for the repl experiment")
	netMode := flag.Bool("net", false, "network mode: run the t10 client/server experiment")
	flag.Parse()
	if *netMode {
		if *run == "all" {
			*run = "t10"
		} else {
			*run += ",t10"
		}
	}

	w := bench.DefaultWorkload.Scale(*scale)
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		want[strings.TrimSpace(id)] = true
	}
	if want["txn"] { // alias for the transaction experiment
		want["t12"] = true
	}
	if want["t14"] { // alias for the replication experiment
		want["repl"] = true
	}
	if want["t15"] { // alias for the failover experiment
		want["failover"] = true
	}
	if want["t16"] { // alias for the MVCC experiment
		want["mvcc"] = true
	}
	all := want["all"]
	sel := func(id string) bool { return all || want[strings.ToLower(id)] }

	type experiment struct {
		id string
		fn func() (*bench.Table, error)
	}
	experiments := []experiment{
		{"fig2", bench.Fig2},
		{"adds", bench.ADDS},
		{"dml", bench.DML},
		{"t1", func() (*bench.Table, error) { return bench.T1(w, *reps) }},
		{"t2", func() (*bench.Table, error) { return bench.T2(w, *reps) }},
		{"t3", func() (*bench.Table, error) { return bench.T3(300*(*scale), 24, *reps) }},
		{"t4", func() (*bench.Table, error) { return bench.T4(w, *reps) }},
		{"t5", func() (*bench.Table, error) { return bench.T5(w, *reps) }},
		{"t6", func() (*bench.Table, error) { return bench.T6(w, *reps) }},
		{"t7", func() (*bench.Table, error) { return bench.T7(*reps) }},
		{"t8", func() (*bench.Table, error) { return bench.T8(w, *reps) }},
		{"t9", func() (*bench.Table, error) { return bench.T9(w, *reps, *parallel) }},
		{"t10", func() (*bench.Table, error) { return bench.T10(w, *reps, *parallel) }},
		{"t12", func() (*bench.Table, error) { return bench.T12(*reps, *writers) }},
		{"obs", func() (*bench.Table, error) { return bench.Obs(w, *reps) }},
		{"obs2", func() (*bench.Table, error) { return bench.Obs2(w, *reps) }},
		{"fault", func() (*bench.Table, error) { return bench.Fault(*reps) }},
		{"repl", func() (*bench.Table, error) { return bench.Repl(w, *reps, *followers) }},
		{"failover", func() (*bench.Table, error) { return bench.Failover(*reps) }},
		{"mvcc", func() (*bench.Table, error) { return bench.MVCC(*reps, *parallel) }},
	}
	artifacts := map[string]string{
		"t9":       "BENCH_parallel.json",
		"t10":      "BENCH_net.json",
		"t12":      "BENCH_txn.json",
		"obs":      "BENCH_obs.json",
		"obs2":     "BENCH_obs2.json",
		"fault":    "BENCH_fault.json",
		"repl":     "BENCH_repl.json",
		"failover": "BENCH_failover.json",
		"mvcc":     "BENCH_mvcc.json",
	}
	ran := 0
	for _, ex := range experiments {
		if !sel(ex.id) {
			continue
		}
		t, err := ex.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", ex.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		if path := artifacts[ex.id]; path != "" {
			if err := writeJSON(path, t); err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "simbench: no experiment matches %q\n", *run)
		os.Exit(2)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
