// Command simbench regenerates the reproduced figure, examples and
// mapping/optimizer ablations of EXPERIMENTS.md (FIG2, ADDS, EX1–EX7 and
// T1–T8). Performance beyond the paper is measured by the layered
// benchmark under benchmark/.
//
// Usage:
//
//	simbench [-run id[,id...]] [-scale n] [-reps n]
//
// Experiment ids: fig2, adds, dml, t1..t8, all (default).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sim/internal/bench"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (fig2,adds,dml,t1..t8)")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 5, "repetitions per measurement")
	flag.Parse()

	w := bench.DefaultWorkload.Scale(*scale)
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		want[strings.TrimSpace(id)] = true
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
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "simbench: no experiment matches %q\n", *run)
		os.Exit(2)
	}
}
