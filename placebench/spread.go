package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// resultSet is a series of runs of one workload, as spread writes it
// and compare reads it.
type resultSet struct {
	Workload string   `json:"workload"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Seeds    []int64  `json:"seeds"`
	Runs     []result `json:"runs"`
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec() (map[string]string, map[string]float64) {
	better := map[string]string{}
	bound := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return better, bound
	}
	var s benchSpec
	if json.Unmarshal(data, &s) != nil {
		return better, bound
	}
	for _, m := range s.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	for _, m := range s.PerLayer {
		better[m.Name] = m.Better
	}
	return better, bound
}

// spreadMain runs one workload repeatedly, one seed per run, and prints
// each metric's median, quartiles and (Q3−Q1)/median.
func spreadMain(args []string) int {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Float64("seconds", 30, "measurement length of each run")
	traced := fs.Int("trace", 0, "1 repeats the traced pass")
	out := fs.String("out", "", "file to write the result set to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	set := resultSet{Workload: *name, Seconds: *seconds, Trace: *traced}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		res, perr := lastResult(stdout)
		if err != nil || perr != nil {
			fmt.Fprintf(os.Stderr, "spread: run with seed %d failed: %v %v\n%s", seed, err, perr, stdout)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spread: seed %d done\n", seed)
		set.Seeds = append(set.Seeds, seed)
		set.Runs = append(set.Runs, res)
	}
	printSpread(set)
	if *out != "" {
		data, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res result
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}

func metricValues(set resultSet, name string) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func metricNames(set resultSet) []string {
	names := map[string]bool{}
	for _, r := range set.Runs {
		for n := range r.Metrics {
			names[n] = true
		}
	}
	return sortedKeys(names)
}

func printSpread(set resultSet) {
	_, bound := loadBenchSpec()
	fmt.Printf("workload %s: %d runs of %gs, trace=%d\n", set.Workload, len(set.Runs), set.Seconds, set.Trace)
	fmt.Printf("  %-32s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, n := range metricNames(set) {
		vs := metricValues(set, n)
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		b := "-"
		if v, ok := bound[n]; ok {
			b = fmt.Sprintf("%.3f", v)
			if n != "setup_s" && spread > v/3 {
				b += " !"
			}
		}
		fmt.Printf("  %-32s %14.6g %14.6g %14.6g %8.4f %6s\n", n, med, q1, q3, spread, b)
	}
	var att, fail int64
	for _, r := range set.Runs {
		att += r.Attempted
		fail += r.Failed
	}
	fmt.Printf("  operations: attempted=%d failed=%d\n", att, fail)
}

// compareMain compares a parent result set with a change's by the
// choosing-metrics rule: a gain needs the change to win at least nine
// tenths of the pairs and a median gap above the parent's interquartile
// range; a metric whose spread exceeds its bound is unresolved unless
// every change run beats every parent run.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: placebench compare PARENT.json CHANGE.json")
		return 2
	}
	var sets [2]resultSet
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", p, err)
			return 1
		}
	}
	better, bound := loadBenchSpec()
	parent, change := sets[0], sets[1]
	fmt.Printf("compare %s: parent %d runs, change %d runs\n", parent.Workload, len(parent.Runs), len(change.Runs))
	fmt.Printf("  %-32s %12s %12s %8s %9s %s\n", "metric", "parent", "change", "wins", "parentIQR", "verdict")
	regressed := false
	for _, n := range metricNames(parent) {
		a, b := metricValues(parent, n), metricValues(change, n)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		dir := better[n]
		v := verdict(a, b, dir, bound[n])
		if v == "worse" {
			regressed = true
		}
		q1, q3 := quartiles(a)
		fmt.Printf("  %-32s %12.6g %12.6g %8s %9.4g %s\n", n, median(a), median(b), winsOf(a, b, dir), q3-q1, v)
	}
	if regressed {
		return 1
	}
	return 0
}

// wins counts the pairs in which the change reads better; ties count
// for neither side.
func wins(a, b []float64, dir string) (won, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if (dir == "lower" && b[i] < a[i]) || (dir == "higher" && b[i] > a[i]) {
			won++
		}
	}
	return won, pairs
}

func winsOf(a, b []float64, dir string) string {
	w, p := wins(a, b, dir)
	return fmt.Sprintf("%d/%d", w, p)
}

// verdict classifies one metric: "better", "worse", "unchanged" or
// "unresolved".
func verdict(a, b []float64, dir string, bound float64) string {
	if dir == "" {
		return "count only"
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	gap := mb - ma
	if dir == "higher" {
		gap = -gap // positive gap means worse
	}
	won, pairs := wins(a, b, dir)
	if gap < 0 && 10*won >= 9*pairs && -gap > iqr {
		return "better"
	}
	if bound == 0 {
		return "unchanged (no bound)"
	}
	spreadA := iqr / math.Abs(ma)
	bq1, bq3 := quartiles(b)
	spreadB := (bq3 - bq1) / math.Abs(mb)
	if spreadA > bound || spreadB > bound {
		if allBetter(a, b, dir) {
			return "better (every run)"
		}
		return "unresolved (spread above bound)"
	}
	if gap > bound*math.Abs(ma) {
		return "worse"
	}
	return "unchanged"
}

func allBetter(a, b []float64, dir string) bool {
	for _, x := range a {
		for _, y := range b {
			if (dir == "lower" && y >= x) || (dir == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}
