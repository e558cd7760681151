// Command benchmark is the benchmark of this repository: four closed-loop
// workloads on the paper's UNIVERSITY schema, end-to-end metrics measured
// with tracing off, and per-layer metrics from a separate traced run that
// wraps the exported calls of each module from outside. See README.md.
//
//	bash benchmark/run.sh -workload all -seed 1 -out out.json
//	bash benchmark/run.sh -sets 5 -out sets.json
//	bash benchmark/run.sh -compare old.json new.json
//
// The driver's form, whose last line of output is one JSON object:
//
//	bash benchmark/run.sh --workload point-read --seed 3 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the dataset and of the operation streams")
		seconds = flag.Int("seconds", 30, "length of the timed window")
		trace   = flag.Int("trace", 1, "1 adds the traced run and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out     = flag.String("out", "", "write the full results here as JSON, and the spans beside it as <out>.trace.json")
		sets    = flag.Int("sets", 1, "run every workload this many times and print each metric's spread")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		specOut = flag.Bool("spec", false, "print BENCHMARK.json as the metric tables declare it")
	)
	flag.Parse()
	switch {
	case *specOut:
		b, err := spec(driverSeconds)
		if err != nil {
			return err
		}
		_, err = fmt.Println(string(b))
		return err
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *name == "all" || *sets > 1:
		return runAll(*sets, *seed, *seconds, *trace, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	return runOne(w, *seed, *seconds, *trace != 0, *out)
}

// driverSeconds is run_seconds in BENCHMARK.json: the driver's 92 runs,
// with three set-ups each, must end within its time limit, which a
// 30-second window does not allow. Without --seconds a window is 30 s.
const driverSeconds = 15

// tmpRoot is where runs keep their database files: inside the checkout,
// which is all the benchmark may write to.
const tmpRoot = ".bench_tmp"

func runOne(w workload, seed int64, seconds int, trace bool, out string) error {
	if n := runtime.NumCPU(); n < clientsPerWorkload {
		return fmt.Errorf("%d closed-loop clients need %d cores, this machine has %d: refusing to oversubscribe",
			clientsPerWorkload, clientsPerWorkload, n)
	}
	tmp, err := os.MkdirTemp(mkTmpRoot(), w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	window := time.Duration(seconds) * time.Second
	cfg := runConfig{
		w: w, seed: seed, window: window, warmup: min(3*time.Second, window/5),
		trace: trace, scale: 1, setups: 3, tmp: tmp,
		drillTxns: 2000, budget: fullBudget, separation: true,
	}
	if trace && out != "" {
		cfg.tracer = newTracer()
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
		if cfg.tracer != nil {
			if err := cfg.tracer.writeFile(strings.TrimSuffix(out, ".json") + ".trace.json"); err != nil {
				return err
			}
		}
	}
	line, err := res.driverLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed, gates: %s", w.Name, res.Failed, res.Attempted, res.failedGates())
	}
	return nil
}

func mkTmpRoot() string {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "" // MkdirTemp then reports the real problem
	}
	return tmpRoot
}

// resultFile is what -out holds after -workload all or -sets: every run,
// in order.
type resultFile struct {
	Runs []*result `json:"runs"`
}

// runAll runs each workload in its own child process, so that peak_rss_mb
// is the workload's own, and gathers the results.
func runAll(sets int, seed int64, seconds, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(mkTmpRoot(), "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var all resultFile
	var failed []string
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.Name, set))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(part)
			if err != nil {
				return fmt.Errorf("%s: %v (no result written)", w.Name, runErr)
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			all.Runs = append(all.Runs, &r)
			if runErr != nil {
				failed = append(failed, w.Name)
			}
			if out != "" && trace != 0 && sets == 1 {
				base := strings.TrimSuffix(out, ".json")
				if err := os.Rename(strings.TrimSuffix(part, ".json")+".trace.json", base+"."+w.Name+".trace.json"); err != nil {
					return err
				}
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	if sets > 1 {
		printSpreads(os.Stdout, all.Runs)
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect or failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
