// Command placebench is the repository's end-to-end benchmark. It drives
// three workloads through the real placement daemon on a simulated clock,
// in one process, checks every published placement with a checker of its
// own, and prints the end-to-end metrics (untraced) or the per-layer
// metrics (traced) as one JSON line.
//
//	placebench --workload exp3-batch --seed 1 --seconds 30 --trace 0
//	placebench spread --workload exp3-batch --runs 10 --seconds 30 --out a.json
//	placebench compare parent.json change.json
//
// See README.md for the workloads, the metrics and the measured spread
// behind every bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spread":
			os.Exit(spreadMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measurement length in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	spanOut := fs.String("spans", "", "file the traced pass writes its spans to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "placebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "placebench: run from the repository root (BENCHMARK.json not found)")
		return 2
	}
	procs := min(benchProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	fmt.Println(machineLine(procs, benchParallelism))

	r := newRun(w, *seed, *seconds)
	var metrics map[string]metric
	var err error
	if *traced == 1 {
		path := *spanOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
		}
		metrics, err = r.traced(path)
	} else {
		metrics, err = r.untraced()
	}
	if err != nil {
		r.failCheck("run: %v", err)
	}
	r.printAccounting()
	res := result{
		Correct:   len(r.violations) == 0,
		Attempted: r.acct.attempted(),
		Failed:    r.acct.failed(),
		Metrics:   metrics,
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// machineLine fingerprints the host so reference figures can be matched
// to the machine that produced them.
func machineLine(procs, parallelism int) string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if _, v, ok := strings.Cut(l, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("machine: go=%s GOMAXPROCS=%d parallelism=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), procs, parallelism, runtime.NumCPU(), model, commit)
}
