package main

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"dynplace"
	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/daemon"
	"dynplace/internal/trace"
)

// exp3-batch is the paper's Experiment Three on the daemon: 25 nodes,
// one constant-rate transactional app and 240 long batch jobs that
// arrive faster than the batch share can serve them, then drain. With
// up to ~130 live jobs the allocator's feasibility probe and the batch
// hypothetical dominate the cycle; flow routing is idle (one web app).
func init() {
	register(&workload{name: "exp3-batch", round: exp3Round})
}

const (
	exp3Cycle = 600.0
	// exp3TraceSeed fixes the arrival sample of the paper's workload.
	// The daemon's decisions are path-dependent: reordering the job
	// registrations alone spread the placement changes 36% and the
	// allocation per cycle 10% between seeds, more than a bound could
	// hold. The run's seed therefore draws only the traffic the
	// benchmark delivers around the app's rate (see round.noise).
	exp3TraceSeed = 1
)

// exp3Inputs generates the paper's workload.
func exp3Inputs() (web dynplace.WebAppSpec, jobs []*batch.Spec) {
	tx := trace.Experiment3WebApp()
	web = dynplace.WebAppSpec{
		Name: tx.Name, ArrivalRate: tx.ArrivalRate, DemandPerRequest: tx.DemandPerRequest,
		BaseLatency: tx.BaseLatency, GoalResponseTime: tx.GoalResponseTime,
		MaxPowerMHz: tx.MaxPowerMHz, MemoryMB: tx.MemoryMB,
	}
	return web, trace.Experiment3Workload(exp3TraceSeed, 200, 40, 180, 600)
}

func paperNodes(n int) []cluster.Node {
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{CPUMHz: 4 * 3900, MemMB: 16384}
	}
	return nodes
}

func exp3Round(rd *round) error {
	var reqs []apiReq
	cfg := func() daemon.Config {
		cl, _ := cluster.New(paperNodes(25)...)
		return daemon.Config{
			Cluster: cl, CycleSeconds: exp3Cycle, Costs: cluster.DefaultCostModel(),
			Clock: daemon.NewSimClock(), Dynamic: control.DynamicConfig{Parallelism: benchParallelism},
		}
	}
	err := rd.timeSetup(func() (func(), error) {
		reqs = nil
		web, specs := exp3Inputs()
		// The jobs travel through the trace package's JSON job format,
		// as a recorded workload would.
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, specs); err != nil {
			return nil, err
		}
		rd.lay.add("trace.bytes", float64(buf.Len()))
		end := rd.tr.begin("trace.parse")
		t0 := time.Now()
		parsed, err := trace.ReadJSON(&buf)
		rd.lay.add("trace.parse_ms", ms(time.Since(t0)))
		end()
		if err != nil {
			return nil, err
		}
		c := cfg()
		d, err := daemon.New(c)
		if err != nil {
			return nil, err
		}
		rd.attach(d, c.Clock.(*daemon.SimClock), exp3Cycle)
		rd.chk = newChecker()
		for i, n := range paperNodes(25) {
			rd.chk.addNode(nodeName(i), n.CPUMHz, n.MemMB)
		}
		rd.chk.addApp(web)
		reqs = append(reqs, apiReq{"add_app", http.MethodPost, "/v1/apps", daemon.AddAppRequest{App: web}})
		for _, s := range parsed {
			js := jobSpecOf(s)
			rd.chk.addJob(js)
			reqs = append(reqs, apiReq{"submit_job", http.MethodPost, "/v1/jobs", daemon.SubmitJobRequest{Job: js}})
		}
		for _, q := range reqs {
			if _, err := rd.call(q.kind, q.method, q.path, q.body); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	if err := rd.start(); err != nil {
		return err
	}
	rd.strict = true
	rd.deliver("tx", trace.Experiment3WebApp().ArrivalRate, 0)
	// Run until every job has arrived and the queue has drained.
	for k := 0; k < 400; k++ {
		if err := rd.cycle(); err != nil {
			return err
		}
		if len(rd.plan.Jobs) == 0 && rd.plan.Time > lastSubmit(rd.chk) {
			break
		}
	}
	if err := rd.scoreJobs(); err != nil {
		return err
	}
	if err := rd.finishForecast(); err != nil {
		return err
	}
	return rd.shadowRecovery(cfg, registerVia(rd.r.acct, reqs), 10)
}

func nodeName(i int) string { return "node-" + strconv.Itoa(i) }

func lastSubmit(c *checker) float64 {
	var t float64
	for _, j := range c.jobs {
		if j.Submit > t {
			t = j.Submit
		}
	}
	return t
}

// jobSpecOf converts a trace job into the API's job spec.
func jobSpecOf(s *batch.Spec) dynplace.JobSpec {
	js := dynplace.JobSpec{
		Name: s.Name, Submit: s.Submit, DesiredStart: s.DesiredStart, Deadline: s.Deadline,
		AntiCollocate: append([]string(nil), s.AntiCollocate...),
	}
	for _, st := range s.Stages {
		js.Stages = append(js.Stages, dynplace.Stage{
			WorkMcycles: st.WorkMcycles, MaxSpeedMHz: st.MaxSpeedMHz,
			MinSpeedMHz: st.MinSpeedMHz, MemoryMB: st.MemoryMB,
		})
	}
	return js
}
