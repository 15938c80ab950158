package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"dynplace"
	"dynplace/internal/batch"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/daemon"
	"dynplace/internal/store"
	"dynplace/internal/trace"
)

// fleet-churn is a durable, sharded daemon under churn: 128 paper nodes
// in 8 zones, 8 web apps whose load moves every cycle, 160 jobs
// submitted as they arrive, a node failure plus replacement every few
// cycles and one drain. Every mutation goes through the HTTP handler and
// is journaled. The round ends with the daemon dropped without Shutdown
// and fresh daemons recovering its state directory. It is the only
// workload through the shard coordinator, the inventory lifecycle and
// the store.
func init() {
	register(&workload{name: "fleet-churn", round: churnRound})
}

const (
	churnCycle         = 60.0
	churnNodes         = 128
	churnZones         = 8
	churnApps          = 8
	churnJobs          = 160
	churnArrivalCycles = 120
	churnSnapshotEvery = 64
	// churnCycles puts the kill 40 cycles past the snapshot at cycle
	// 128: several hundred WAL records for recovery to replay.
	churnCycles    = 168
	churnFailEvery = 6
	churnFailFrom  = 10
	churnDrainAt   = 50
	// churnLoadDelay is when, into each window, the apps' rates move;
	// the report reaches the daemon one second later.
	churnLoadDelay = 10.0
)

type churnInputs struct {
	apps []dynplace.WebAppSpec
	// rates[k][a] is app a's arrival rate over window k.
	rates [][]float64
	jobs  []*batch.Spec
}

// churnInputSeed fixes the generated fleet, load and job stream, and
// the failure schedule, for the reason exp3TraceSeed gives.
const churnInputSeed = 1

func churnGenerate() churnInputs {
	rng := rand.New(rand.NewSource(churnInputSeed))
	var in churnInputs
	base := make([]float64, churnApps)
	phase := make([]float64, churnApps)
	for a := 0; a < churnApps; a++ {
		spec := dynplace.WebAppSpec{
			Name: fmt.Sprintf("web-%d", a), DemandPerRequest: 1200, BaseLatency: 0.03,
			GoalResponseTime: 0.25, MemoryMB: 1500,
		}
		if a == churnApps-1 {
			spec.AntiCollocate = []string{"web-0"}
		}
		base[a] = 90 + 60*rng.Float64()
		phase[a] = 2 * math.Pi * rng.Float64()
		in.apps = append(in.apps, spec)
	}
	for k := 0; k <= churnCycles; k++ {
		row := make([]float64, churnApps)
		for a := range row {
			wave := 1 + 0.4*math.Sin(2*math.Pi*float64(k)/60+phase[a])
			row[a] = base[a] * wave * (1 + 0.05*(2*rng.Float64()-1))
		}
		in.rates = append(in.rates, row)
	}
	for i, a := range in.apps {
		a.ArrivalRate = in.rates[0][i]
		in.apps[i] = a
	}
	for j := 0; j < churnJobs; j++ {
		submit := rng.Float64() * churnArrivalCycles * churnCycle
		minExec := (10 + 15*rng.Float64()) * churnCycle
		speed := 3900.0
		mem := 2000 + 4000*rng.Float64()
		factor := 2 + 2*rng.Float64()
		in.jobs = append(in.jobs, batch.SingleStage(fmt.Sprintf("job-%03d", j),
			minExec*speed, speed, mem, submit, submit+factor*minExec))
	}
	sort.Slice(in.jobs, func(i, j int) bool { return in.jobs[i].Submit < in.jobs[j].Submit })
	return in
}

func churnRound(rd *round) error {
	var in churnInputs
	var st *store.Store
	var dir string
	cfg := func() daemon.Config {
		cl, _ := cluster.New(paperNodes(churnNodes)...)
		return daemon.Config{
			Cluster: cl, CycleSeconds: churnCycle, Costs: cluster.DefaultCostModel(),
			Clock: daemon.NewSimClock(), SnapshotEvery: churnSnapshotEvery,
			Dynamic: control.DynamicConfig{
				Parallelism: benchParallelism, Shards: churnZones, ShardSeed: churnInputSeed,
			},
		}
	}
	err := rd.timeSetup(func() (func(), error) {
		in = churnGenerate()
		// The jobs travel through the trace package's JSON job format.
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, in.jobs); err != nil {
			return nil, err
		}
		rd.lay.add("trace.bytes", float64(buf.Len()))
		end := rd.tr.begin("trace.parse")
		t0 := time.Now()
		jobs, err := trace.ReadJSON(&buf)
		rd.lay.add("trace.parse_ms", ms(time.Since(t0)))
		end()
		if err != nil {
			return nil, err
		}
		in.jobs = jobs
		if dir, err = rd.stateDir("main"); err != nil {
			return nil, err
		}
		end = rd.tr.begin("store.open")
		st, err = store.Open(dir)
		end()
		if err != nil {
			return nil, err
		}
		undo := func() { st.Close(); os.RemoveAll(dir) }
		c := cfg()
		c.Store = st
		d, err := daemon.New(c)
		if err == nil {
			err = d.Recover()
		}
		if err != nil {
			undo()
			return nil, err
		}
		rd.attach(d, c.Clock.(*daemon.SimClock), churnCycle)
		rd.chk = newChecker()
		for i, n := range paperNodes(churnNodes) {
			rd.chk.addNode(nodeName(i), n.CPUMHz, n.MemMB)
		}
		for _, a := range in.apps {
			rd.chk.addApp(a)
			if _, err := rd.call("add_app", http.MethodPost, "/v1/apps", daemon.AddAppRequest{App: a}); err != nil {
				undo()
				return nil, err
			}
		}
		return undo, nil
	})
	if err != nil {
		return err
	}
	if err := rd.start(); err != nil {
		return err
	}
	for i, a := range in.apps {
		rd.deliver(a.Name, in.rates[0][i], 0)
	}

	rng := rand.New(rand.NewSource(churnInputSeed ^ 0x5eed))
	active := make([]string, 0, churnNodes)
	for i := 0; i < churnNodes; i++ {
		active = append(active, nodeName(i))
	}
	spares := 0
	// Node operations land at the end of a window, after its requests
	// were routed, so the cycle that follows is the one that must have
	// emptied a failed node.
	rd.beforeCycle = func() error {
		k := rd.cycleNo
		if k >= churnFailFrom && k%churnFailEvery == 0 {
			i := rng.Intn(len(active))
			name := active[i]
			active = append(active[:i], active[i+1:]...)
			if _, err := rd.call("node_op", http.MethodPost, "/v1/nodes/"+name+"/fail", nil); err != nil {
				return err
			}
			rd.chk.nodeFailed(name, k)
			spare := fmt.Sprintf("spare-%d", spares)
			spares++
			if _, err := rd.call("node_op", http.MethodPost, "/v1/nodes",
				daemon.AddNodeRequest{Name: spare, CPUMHz: 4 * 3900, MemMB: 16384}); err != nil {
				return err
			}
			rd.chk.addNode(spare, 4*3900, 16384)
			active = append(active, spare)
		}
		if k == churnDrainAt {
			i := rng.Intn(len(active))
			name := active[i]
			active = append(active[:i], active[i+1:]...)
			if _, err := rd.call("node_op", http.MethodPost, "/v1/nodes/"+name+"/drain", nil); err != nil {
				return err
			}
		}
		return nil
	}

	next := 0
	for k := 0; k < churnCycles; k++ {
		if err := rd.cycle(); err != nil {
			return err
		}
		t, wEnd := rd.plan.Time, rd.nextCycle
		loadAt := t + churnLoadDelay
		loaded := false
		for !loaded || (next < len(in.jobs) && in.jobs[next].Submit < wEnd) {
			if !loaded && (next >= len(in.jobs) || in.jobs[next].Submit >= loadAt) {
				for a, spec := range in.apps {
					rd.deliver(spec.Name, in.rates[k+1][a], loadAt)
				}
				rd.advanceTo(loadAt + 1)
				for a, spec := range in.apps {
					if _, err := rd.call("set_load", http.MethodPost, "/v1/apps/"+spec.Name+"/load",
						daemon.SetLoadRequest{ArrivalRate: in.rates[k+1][a]}); err != nil {
						return err
					}
				}
				loaded = true
				continue
			}
			j := in.jobs[next]
			next++
			rd.advanceTo(math.Max(j.Submit, rd.clk.Now()))
			js := jobSpecOf(j)
			rd.chk.addJob(js)
			if _, err := rd.call("submit_job", http.MethodPost, "/v1/jobs", daemon.SubmitJobRequest{Job: js}); err != nil {
				return err
			}
		}
	}
	rd.beforeCycle = nil
	if err := rd.scoreJobs(); err != nil {
		return err
	}
	if err := rd.finishForecast(); err != nil {
		return err
	}
	return rd.killAndRecover(dir, st, cfg)
}
