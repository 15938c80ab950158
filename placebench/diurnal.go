package main

import (
	"bytes"
	"math"
	"net/http"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/daemon"
	"dynplace/internal/forecast"
	"dynplace/internal/trace"
)

// diurnal-web replays the seeded diurnal trace on four nodes with a
// 30 s cycle and forecast-driven placement: three web apps with
// staggered raised-cosine waves and batch bursts in the valleys. Three
// web apps make the allocator's flow routing dominate a short (~7 ms)
// cycle, which also gives the daemon's own bookkeeping its largest
// share; it is the workload with the heaviest request traffic.
func init() {
	register(&workload{name: "diurnal-web", round: diurnalRound})
}

const (
	diurnalCycle  = 30.0
	diurnalSeason = 14400.0
	// diurnalSensorDelay is how long after a rate change the load report
	// reaches the daemon. A report landing on a cycle instant would read
	// as a zero-width correction the forecaster learns nothing from.
	diurnalSensorDelay = 1.0
)

// diurnalOptions shapes the replay trace. Its seed is fixed for the
// reason exp3TraceSeed gives: the run's seed draws only the delivered
// traffic around the trace's rates.
func diurnalOptions() trace.ReplayOptions {
	return trace.ReplayOptions{
		Seed: 1, Apps: 3, SeasonSeconds: diurnalSeason, Seasons: 2,
		SlotSeconds: diurnalCycle, BaseRate: 40, PeakRate: 160,
	}
}

func diurnalRound(rd *round) error {
	var reqs []apiReq
	var tr *trace.ReplayTrace
	fc := &forecast.Config{
		SeasonSeconds: diurnalSeason, Slots: 48,
		LevelTauSeconds: 2 * diurnalCycle, TrendTauSeconds: 2 * diurnalCycle, SeasonalGamma: 0.2,
	}
	nodes := func() []cluster.Node {
		out := make([]cluster.Node, 4)
		for i := range out {
			out[i] = cluster.Node{CPUMHz: 15600, MemMB: 16384}
		}
		return out
	}
	cfg := func() daemon.Config {
		cl, _ := cluster.New(nodes()...)
		return daemon.Config{
			Cluster: cl, CycleSeconds: diurnalCycle, Costs: cluster.DefaultCostModel(),
			Clock:   daemon.NewSimClock(),
			Dynamic: control.DynamicConfig{Parallelism: benchParallelism, Forecast: fc},
		}
	}
	err := rd.timeSetup(func() (func(), error) {
		reqs = nil
		var buf bytes.Buffer
		if err := trace.EncodeReplay(&buf, trace.GenerateReplay(diurnalOptions())); err != nil {
			return nil, err
		}
		rd.lay.add("trace.bytes", float64(buf.Len()))
		end := rd.tr.begin("trace.parse")
		t0 := time.Now()
		var err error
		tr, err = trace.ParseReplay(&buf)
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
		rd.attach(d, c.Clock.(*daemon.SimClock), diurnalCycle)
		rd.chk = newChecker()
		for i, n := range nodes() {
			rd.chk.addNode(nodeName(i), n.CPUMHz, n.MemMB)
		}
		for _, a := range tr.Apps {
			spec := dynplace.WebAppSpec{
				Name: a.Name, ArrivalRate: a.ArrivalRate, DemandPerRequest: a.DemandPerRequest,
				BaseLatency: a.BaseLatency, GoalResponseTime: a.GoalResponseTime,
				MaxPowerMHz: a.MaxPowerMHz, MemoryMB: a.MemoryMB,
			}
			rd.chk.addApp(spec)
			reqs = append(reqs, apiReq{"add_app", http.MethodPost, "/v1/apps", daemon.AddAppRequest{App: spec}})
		}
		for _, j := range tr.Jobs {
			js := jobSpecOf(j)
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
	rd.forecasting = true
	rd.bulk = true
	for _, a := range tr.Apps {
		rd.deliver(a.Name, a.ArrivalRate, 0)
	}
	// The run covers the last load event and the last job deadline.
	horizon := 0.0
	for _, ev := range tr.Loads {
		horizon = math.Max(horizon, ev.Time)
	}
	for _, j := range tr.Jobs {
		horizon = math.Max(horizon, j.Deadline)
	}
	next := 0
	for {
		if err := rd.cycle(); err != nil {
			return err
		}
		if rd.plan.Time >= horizon {
			break
		}
		wEnd := rd.nextCycle
		for next < len(tr.Loads) && tr.Loads[next].Time < wEnd {
			ev := tr.Loads[next]
			next++
			rd.deliver(ev.App, ev.Rate, ev.Time)
			rd.advanceTo(math.Min(ev.Time+diurnalSensorDelay, wEnd-1e-6))
			if _, err := rd.call("set_load", http.MethodPost, "/v1/apps/"+ev.App+"/load",
				daemon.SetLoadRequest{ArrivalRate: ev.Rate}); err != nil {
				return err
			}
		}
	}
	if err := rd.scoreJobs(); err != nil {
		return err
	}
	if err := rd.finishForecast(); err != nil {
		return err
	}
	return rd.shadowRecovery(cfg, registerVia(rd.r.acct, reqs), 200)
}
