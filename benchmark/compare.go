package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// print renders one run: every metric by name with its unit and sample
// count, then the gates.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d window=%gs warm-up=%gs clients=%d  %s %s nproc=%d GOMAXPROCS=%d commit=%s\n",
		r.Workload, r.Seed, r.WindowS, r.WarmupS, r.Machine.Clients,
		r.Machine.GoVersion, r.Machine.Kernel, r.Machine.NProc, r.Machine.GOMAXPROCS, r.Machine.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(kind, name string, s sample) {
		note := ""
		if pct, ok := r.TailPct[name]; ok && pct != 99 {
			note = fmt.Sprintf("(p%.4g: under 1000 samples)", pct)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\tn=%d\t%s\n", kind, name, s.Value, s.Unit, s.N, note)
	}
	for _, d := range endToEnd {
		if s, ok := r.EndToEnd[d.Name]; ok {
			row("end-to-end", d.Name, s)
		}
	}
	for _, d := range perLayer {
		if s, ok := r.PerLayer[d.Name]; ok {
			row("layer", d.Name, s)
		}
	}
	tw.Flush()
	classes := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		st := r.Classes[c]
		fmt.Fprintf(w, "class %-18s p50 %11.1f us  tail %11.1f us  n=%d\n", c, st.P50us, st.TailUs, st.N)
	}
	for _, t := range r.Templates {
		fmt.Fprintf(w, "template %-18s %9.3f ms  %8d instances  %7d rows\n", t.Template, t.Ms, t.Instances, t.Rows)
	}
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED: " + g.Err
		}
		fmt.Fprintf(w, "gate %-22s %s\n", g.Name, status)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
}

func (r *result) failedGates() string {
	var names []string
	for _, g := range r.Gates {
		if !g.OK {
			names = append(names, g.Name+" ("+g.Err+")")
		}
	}
	if len(names) == 0 {
		return "all passed"
	}
	return strings.Join(names, "; ")
}

// quartiles are the first quartile, the median and the third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), which is what the driver computes spreads from.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// series gathers the end-to-end values (and sim.fail_share) of every run
// in a file, by workload and metric.
func series(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, s := range r.EndToEnd {
			m[name] = append(m[name], s.Value)
		}
		m["sim.fail_share"] = append(m["sim.fail_share"], ratio(float64(r.Failed), float64(r.Attempted)))
	}
	return out
}

// printSpreads prints, for every workload and end-to-end metric, the
// median over the sets and the spread the bounds are fixed against.
func printSpreads(w io.Writer, runs []*result) {
	all := series(runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tspread\tbound\t")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := all[wl.Name][d.Name]
			_, med, _ := quartiles(v)
			note := ""
			if s := spread(v); s > d.Bound/3 && d.Name != "setup_s" {
				note = "spread above a third of the bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.2f%%\t%.0f%%\t%s\n", wl.Name, d.Name, med, d.Unit, 100*spread(v), 100*d.Bound, note)
		}
	}
	tw.Flush()
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 { // the -out of a single workload is one bare result
		var r result
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s: no runs", path)
		}
		f.Runs = []*result{&r}
	}
	return f.Runs, nil
}

// compareFiles prints, per workload and end-to-end metric, the old and new
// medians, their ratio (base: old) and a verdict against the metric's
// bound: worse, unresolved (either side's spread is wider than the bound)
// or ok. More failures than before is always worse.
func compareFiles(oldPath, newPath string) error {
	oldRuns, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := readResults(newPath)
	if err != nil {
		return err
	}
	olds, news := series(oldRuns), series(newRuns)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict\t")
	worse := 0
	defs := append(append([]metricDef(nil), endToEnd...), perLayerDefs["sim.fail_share"])
	for _, wl := range workloads {
		for _, d := range defs {
			ov, nv := olds[wl.Name][d.Name], news[wl.Name][d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			_, om, _ := quartiles(ov)
			_, nm, _ := quartiles(nv)
			verdict := "ok"
			switch {
			case d.Name == "sim.fail_share":
				if nm > om {
					verdict = "worse"
				}
			case d.Better == "lower" && nm > om*(1+d.Bound), d.Better == "higher" && nm < om*(1-d.Bound):
				verdict = "worse"
			case spread(ov) > d.Bound || spread(nv) > d.Bound:
				verdict = "unresolved"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.0f%%\t%s\t\n", wl.Name, d.Name, om, nm, ratio(nm, om), 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
