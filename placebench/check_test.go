package main

import (
	"strings"
	"testing"

	"dynplace"
	"dynplace/internal/daemon"
)

func testChecker() *checker {
	c := newChecker()
	c.addNode("node-0", 1000, 4000)
	c.addNode("node-1", 1000, 4000)
	c.addApp(dynplace.WebAppSpec{Name: "web", MemoryMB: 1000, AntiCollocate: []string{"etl"}})
	c.addJob(dynplace.JobSpec{Name: "j1", WorkMcycles: 1000, MaxSpeedMHz: 500, MemoryMB: 2000, Deadline: 100})
	c.addJob(dynplace.JobSpec{Name: "j2", WorkMcycles: 1000, MaxSpeedMHz: 500, MemoryMB: 2000, Deadline: 100})
	return c
}

// validSnapshot is a placement the checker must accept.
func validSnapshot() *daemon.PlacementSnapshot {
	return &daemon.PlacementSnapshot{
		Cycle: 1, Time: 10,
		Web: []daemon.WebPlacementView{{Name: "web", AllocMHz: 600, Instances: []daemon.InstanceView{
			{Node: "node-0", PowerMHz: 400}, {Node: "node-1", PowerMHz: 200},
		}}},
		Jobs: []daemon.JobPlacementView{
			{Name: "j1", Status: "running", Node: "node-0", SpeedMHz: 500},
			{Name: "j2", Status: "running", Node: "node-1", SpeedMHz: 500},
		},
	}
}

func wantViolation(t *testing.T, got []string, substr string) {
	t.Helper()
	for _, v := range got {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("want a violation containing %q, got %q", substr, got)
}

func TestCheckerAcceptsValidPlacement(t *testing.T) {
	if got := testChecker().placement(validSnapshot()); len(got) != 0 {
		t.Fatalf("valid placement rejected: %q", got)
	}
	w := validSnapshot().Web[0]
	if got := checkDispatch(w, map[string]int{"node-0": 600, "node-1": 300}, 900); len(got) != 0 {
		t.Fatalf("proportional dispatch rejected: %q", got)
	}
}

func TestCheckerRejectsOvercommittedNode(t *testing.T) {
	s := validSnapshot()
	s.Jobs[0].SpeedMHz = 700 // 400 MHz of web + 700 MHz of job on a 1000 MHz node
	wantViolation(t, testChecker().placement(s), "node-0 CPU over-committed")

	s = validSnapshot()
	s.Jobs[1].Node = "node-0" // 1000 + 2000 + 2000 MB on a 4000 MB node
	s.Jobs[1].SpeedMHz = 100
	wantViolation(t, testChecker().placement(s), "node-0 memory over-committed")
}

func TestCheckerRejectsDroppedJob(t *testing.T) {
	c := testChecker()
	s := validSnapshot()
	s.Jobs = s.Jobs[:1] // j2 silently vanishes
	if got := c.placement(s); len(got) != 0 {
		t.Fatalf("unexpected placement violations: %q", got)
	}
	results := []jobResultView{{Name: "j1"}}
	wantViolation(t, c.jobResults(results, s), "job j2 was lost")
}

func TestCheckerRejectsRequestToNonHostingNode(t *testing.T) {
	w := validSnapshot().Web[0]
	got := checkDispatch(w, map[string]int{"node-0": 600, "node-1": 290, "node-7": 10}, 900)
	wantViolation(t, got, "sent to node-7, which hosts no instance")
}

func TestCheckerRejectsSkewedDispatch(t *testing.T) {
	w := validSnapshot().Web[0]
	wantViolation(t, checkDispatch(w, map[string]int{"node-0": 300, "node-1": 600}, 900), "power share predicts")
}

func TestCheckerRejectsWorkOnFailedNode(t *testing.T) {
	c := testChecker()
	c.nodeFailed("node-1", 1)
	s := validSnapshot()
	s.Cycle = 2
	wantViolation(t, c.placement(s), "failed node node-1 still hosts")
}

func TestCheckerRejectsAntiCollocation(t *testing.T) {
	c := testChecker()
	c.addJob(dynplace.JobSpec{Name: "etl", WorkMcycles: 10, MaxSpeedMHz: 10, MemoryMB: 10, Deadline: 100})
	s := validSnapshot()
	s.Jobs = append(s.Jobs, daemon.JobPlacementView{Name: "etl", Node: "node-0", SpeedMHz: 1})
	s.Jobs[0].SpeedMHz = 500
	wantViolation(t, c.placement(s), "anti-collocated web and etl")
}

func TestCheckerRejectsEarlyCompletion(t *testing.T) {
	c := testChecker()
	s := validSnapshot()
	s.Jobs = s.Jobs[1:]
	c.placement(s)
	// j1 needs 1000 Mcycles at 500 MHz: it cannot finish before t = 2.
	wantViolation(t, c.jobResults([]jobResultView{{Name: "j1", Completed: true, CompletedAt: 1}, {Name: "j2"}}, s),
		"job j1 completed at 1.000, before submit+work/maxSpeed")
}
