package main

import (
	"fmt"
	"math"
	"sort"

	"dynplace"
	"dynplace/internal/daemon"
)

// checker verifies published placements against what the benchmark
// submitted. It never trusts the daemon's own accounting: capacities,
// footprints and constraints come from the specs the benchmark sent.
type checker struct {
	nodes map[string]nodeCap
	apps  map[string]dynplace.WebAppSpec
	jobs  map[string]jobSpec
	// failedAt records the cycle after which each failed node must be
	// empty: the failure was reported between that cycle and the next.
	failedAt map[string]int64
	// gone holds jobs that have left the placement; each must turn up
	// completed exactly once in the daemon's results.
	gone map[string]bool
}

type nodeCap struct{ cpuMHz, memMB float64 }

func newChecker() *checker {
	return &checker{
		nodes:    map[string]nodeCap{},
		apps:     map[string]dynplace.WebAppSpec{},
		jobs:     map[string]jobSpec{},
		failedAt: map[string]int64{},
		gone:     map[string]bool{},
	}
}

func (c *checker) addNode(name string, cpuMHz, memMB float64) {
	c.nodes[name] = nodeCap{cpuMHz, memMB}
}

func (c *checker) addApp(a dynplace.WebAppSpec) { c.apps[a.Name] = a }

func (c *checker) addJob(j dynplace.JobSpec) { c.jobs[j.Name] = newJobSpec(j) }

// nodeFailed notes that name failed after cycle was published.
func (c *checker) nodeFailed(name string, cycle int64) { c.failedAt[name] = cycle }

const capSlack = 1e-6 // relative slack for float sums of MHz and MB

// placement checks one published placement.
func (c *checker) placement(s *daemon.PlacementSnapshot) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	cpu := map[string]float64{}
	mem := map[string]float64{}
	tenants := map[string][]string{}
	for _, w := range s.Web {
		spec, ok := c.apps[w.Name]
		if !ok {
			bad("unknown web app %q published", w.Name)
			continue
		}
		seen := map[string]bool{}
		for _, in := range w.Instances {
			if seen[in.Node] {
				bad("app %s has two instances on %s", w.Name, in.Node)
			}
			seen[in.Node] = true
			cpu[in.Node] += in.PowerMHz
			mem[in.Node] += spec.MemoryMB
			tenants[in.Node] = append(tenants[in.Node], w.Name)
		}
	}
	names := map[string]bool{}
	for _, j := range s.Jobs {
		spec, ok := c.jobs[j.Name]
		switch {
		case !ok:
			bad("unknown job %q published", j.Name)
			continue
		case names[j.Name]:
			bad("job %s published twice", j.Name)
		case c.gone[j.Name]:
			bad("job %s reappeared after leaving the placement", j.Name)
		}
		names[j.Name] = true
		if j.Node == "" {
			continue
		}
		cpu[j.Node] += j.SpeedMHz
		mem[j.Node] += spec.memoryAt(j.DoneMcycles)
		tenants[j.Node] = append(tenants[j.Node], j.Name)
	}
	for _, node := range sortedKeys(tenants) {
		cp, ok := c.nodes[node]
		if !ok {
			bad("work placed on unknown node %s", node)
			continue
		}
		if cpu[node] > cp.cpuMHz*(1+capSlack) {
			bad("node %s CPU over-committed: %.3f MHz placed on %.0f", node, cpu[node], cp.cpuMHz)
		}
		if mem[node] > cp.memMB*(1+capSlack) {
			bad("node %s memory over-committed: %.1f MB placed on %.0f", node, mem[node], cp.memMB)
		}
		if at, failed := c.failedAt[node]; failed && s.Cycle > at {
			bad("failed node %s still hosts %v at cycle %d", node, tenants[node], s.Cycle)
		}
		for _, v := range c.antiViolations(tenants[node]) {
			bad("node %s: %s", node, v)
		}
	}
	// Every submitted job that has arrived must be live or completed.
	for _, name := range sortedKeys(c.jobs) {
		if c.gone[name] || c.jobs[name].Submit > s.Time || names[name] {
			continue
		}
		c.gone[name] = true
	}
	return out
}

// antiViolations reports anti-collocated pairs among one node's tenants.
func (c *checker) antiViolations(tenants []string) []string {
	var out []string
	present := map[string]bool{}
	for _, t := range tenants {
		present[t] = true
	}
	for _, t := range tenants {
		var anti []string
		if a, ok := c.apps[t]; ok {
			anti = a.AntiCollocate
		} else {
			anti = c.jobs[t].AntiCollocate
		}
		for _, other := range anti {
			if present[other] {
				out = append(out, fmt.Sprintf("anti-collocated %s and %s share the node", t, other))
			}
		}
	}
	return out
}

// jobResults checks the daemon's job results at the end of a round:
// every job that left the placement completed exactly once, no job is
// missing, and none finished faster than its work allows.
func (c *checker) jobResults(results []jobResultView, last *daemon.PlacementSnapshot) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	seen := map[string]int{}
	for _, r := range results {
		seen[r.Name]++
		spec, ok := c.jobs[r.Name]
		if !ok {
			bad("result for unknown job %q", r.Name)
			continue
		}
		if !r.Completed {
			continue
		}
		if !c.gone[r.Name] {
			bad("job %s completed but never left the placement", r.Name)
		}
		if earliest := spec.Submit + spec.minExec; r.CompletedAt < earliest-1e-6*math.Max(1, earliest) {
			bad("job %s completed at %.3f, before submit+work/maxSpeed = %.3f", r.Name, r.CompletedAt, earliest)
		}
	}
	live := map[string]bool{}
	for _, j := range last.Jobs {
		live[j.Name] = true
	}
	for _, name := range sortedKeys(c.jobs) {
		switch {
		case seen[name] > 1:
			bad("job %s appears %d times in the results", name, seen[name])
		case seen[name] == 0 && c.jobs[name].Submit <= last.Time:
			bad("job %s was lost: no result", name)
		case c.gone[name] && !completedIn(results, name):
			bad("job %s left the placement without completing", name)
		case live[name] && completedIn(results, name):
			bad("job %s is both live and completed", name)
		}
	}
	return out
}

func completedIn(results []jobResultView, name string) bool {
	for _, r := range results {
		if r.Name == name {
			return r.Completed
		}
	}
	return false
}

// predictedUtility compares the daemon's predicted web utility with the
// benchmark's model at the rate the app was fed. For a constant-rate
// app the two must agree to 1e-9.
func (c *checker) predictedUtility(s *daemon.PlacementSnapshot, rates map[string]float64) []string {
	var out []string
	for _, w := range s.Web {
		spec := c.apps[w.Name]
		u, stable := webUtilityRaw(spec, rates[w.Name], w.AllocMHz)
		switch {
		case !stable && w.Utility > -1e8:
			out = append(out, fmt.Sprintf("app %s: daemon predicts utility %g for an unstable allocation %.1f MHz", w.Name, w.Utility, w.AllocMHz))
		case stable && math.Abs(u-w.Utility) > 1e-9:
			out = append(out, fmt.Sprintf("app %s: daemon utility %.12f, model %.12f at %.1f MHz", w.Name, w.Utility, u, w.AllocMHz))
		}
	}
	return out
}

// checkDispatch verifies one window's routing for one app: requests
// land only on nodes hosting it, and per-node counts follow the power
// shares within a binomial tolerance (six standard deviations plus two
// requests of rounding).
func checkDispatch(w daemon.WebPlacementView, counts map[string]int, n int) []string {
	var out []string
	power := map[string]float64{}
	var total float64
	for _, in := range w.Instances {
		power[in.Node] += in.PowerMHz
		total += in.PowerMHz
	}
	for _, node := range sortedKeys(counts) {
		if _, ok := power[node]; !ok {
			out = append(out, fmt.Sprintf("app %s: %d requests sent to %s, which hosts no instance", w.Name, counts[node], node))
		}
	}
	if total <= 0 {
		return out
	}
	for _, node := range sortedKeys(power) {
		p := power[node] / total
		want := float64(n) * p
		tol := 6*math.Sqrt(float64(n)*p*(1-p)) + 2
		if got := float64(counts[node]); math.Abs(got-want) > tol {
			out = append(out, fmt.Sprintf("app %s: node %s got %d of %d requests, power share predicts %.0f±%.0f", w.Name, node, counts[node], n, want, tol))
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
