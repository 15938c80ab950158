package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynplace"
	"dynplace/internal/batch"
	"dynplace/internal/daemon"
	"dynplace/internal/flow"
	"dynplace/internal/forecast"
	"dynplace/internal/obs"
	"dynplace/internal/router"
)

// perLayer lists every per-layer metric with its unit, in print order.
// Timings are per-cycle medians unless the unit is a count.
var perLayer = []struct{ name, unit string }{
	{"core.solve_ms", "ms"},
	{"core.solve_share", "ratio"},
	{"core.instance_changes", "count"},
	{"batch.live_jobs", "count"},
	{"batch.hypothetical_us", "us"},
	{"batch.hypothetical_allocs", "count"},
	{"flow.build_route_us", "us"},
	{"flow.build_allocs", "count"},
	{"flow.reuse_route_us", "us"},
	{"control.inventory_snapshot_ms", "ms"},
	{"control.build_problem_ms", "ms"},
	{"control.forecast_ms", "ms"},
	{"control.extract_ms", "ms"},
	{"control.explain_ms", "ms"},
	{"scheduler.apply_ms", "ms"},
	{"shard.rebalance_ms", "ms"},
	{"shard.zone_solve_ms_max", "ms"},
	{"shard.zone_solve_ms_sum", "ms"},
	{"shard.merge_verify_ms", "ms"},
	{"shard.zone_imbalance", "ratio"},
	{"shard.zone_moves", "count"},
	{"daemon.demand_update_ms", "ms"},
	{"daemon.publish_ms", "ms"},
	{"daemon.journal_ms", "ms"},
	{"daemon.snapshot_ms", "ms"},
	{"daemon.cycle_self_ms", "ms"},
	{"daemon.api_us.submit_job", "us"},
	{"daemon.api_us.set_load", "us"},
	{"daemon.api_us.node_op", "us"},
	{"store.wal_bytes_per_cycle", "B"},
	{"store.records_per_cycle", "count"},
	{"store.snapshot_bytes", "B"},
	{"store.replay_records", "count"},
	{"router.dispatch_bare_ns", "ns"},
	{"router.batch_ns", "ns"},
	{"router.publish_us", "us"},
	{"forecast.observe_ns", "ns"},
	{"forecast.forecast_ns", "ns"},
	{"forecast.mape", "ratio"},
	{"trace.parse_ms", "ms"},
	{"trace.bytes", "B"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_kb", "KB"},
	{"obs.spans_per_cycle", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// totals are per-layer metrics reported as a round's sum, not a
// per-cycle median.
var totals = map[string]bool{
	"core.instance_changes": true,
	"shard.zone_moves":      true,
}

// layerSamples collects per-layer observations of one traced round. A
// nil value ignores every observation.
type layerSamples struct {
	vals map[string][]float64
	// state for the direct timed calls
	bare    *router.Router
	est     map[string]*forecast.Estimator
	specs   map[string]*batch.Spec
	lastSeq uint64
	lastWAL int64
	scrapes int
}

func newLayerSamples() *layerSamples {
	return &layerSamples{
		vals:  map[string][]float64{},
		bare:  router.New(128),
		est:   map[string]*forecast.Estimator{},
		specs: map[string]*batch.Spec{},
	}
}

func (l *layerSamples) add(name string, v float64) {
	if l == nil {
		return
	}
	l.vals[name] = append(l.vals[name], v)
}

// traced is the per-layer pass: one untraced round for the overhead
// baseline, then traced rounds for the rest of the budget.
func (r *run) traced(spanPath string) (map[string]metric, error) {
	begin := time.Now()
	budget := time.Duration(r.seconds * float64(time.Second))
	base, err := r.playRounds(0, false)
	if err != nil {
		return nil, err
	}
	left := budget - time.Since(begin)
	rounds, err := r.playRounds(left, true)
	if err != nil {
		return nil, err
	}
	r.checkRoundsAgree(append(base, rounds...))

	merged := map[string][]float64{}
	var wall, baseWall []float64
	for _, rd := range rounds {
		for name, v := range rd.lay.vals {
			if totals[name] {
				merged[name] = append(merged[name], sum(v))
				continue
			}
			merged[name] = append(merged[name], v...)
		}
		for _, c := range rd.cycles {
			wall = append(wall, c.wallMs*rd.factorAt(c.at))
		}
	}
	for _, rd := range base {
		for _, c := range rd.cycles {
			baseWall = append(baseWall, c.wallMs*rd.factorAt(c.at))
		}
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{median(merged[m.name]), m.unit}
	}
	if b := median(baseWall); b > 0 {
		out["obs.trace_overhead_pct"] = metric{(median(wall) - b) / b * 100, "%"}
	}
	printSelfTimes(rounds)
	fmt.Printf("daemon cycle spans + daemon.cycle_self_ms cover %.1f%% of the benchmark-timed cycle wall time (median)\n",
		median(merged["coverage"])*100)
	for _, m := range perLayer {
		fmt.Printf("layer: %-32s %14.4f %s\n", m.name, out[m.name].Value, m.unit)
	}
	if err := writeSpans(spanPath, rounds); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", spanPath)
	return out, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// traceCycle reads the daemon's own span timeline for the cycle just
// run and makes the direct timed calls on inputs taken from its
// published placement.
func (rd *round) traceCycle(snap *daemon.PlacementSnapshot, wall time.Duration) error {
	l := rd.lay
	body, err := rd.call("debug_cycle", http.MethodGet, fmt.Sprintf("/v1/debug/cycles/%d", snap.Cycle), nil)
	if err != nil {
		return err
	}
	var tv obs.TraceView
	if err := json.Unmarshal(body, &tv); err != nil {
		return fmt.Errorf("decoding cycle trace: %w", err)
	}
	dur := map[string]float64{}
	var zoneMax, zoneSum float64
	zones := 0
	type iv struct{ a, b int64 }
	var ivs []iv
	extract := -1
	// Spans are recorded as they close; in start order a parent (extract)
	// precedes the span it encloses (explain).
	sort.SliceStable(tv.Spans, func(i, j int) bool {
		a, b := tv.Spans[i], tv.Spans[j]
		if a.StartMicros != b.StartMicros {
			return a.StartMicros < b.StartMicros
		}
		return a.DurationMicros > b.DurationMicros
	})
	for _, s := range tv.Spans {
		v := float64(s.DurationMicros) / 1000
		if strings.HasPrefix(s.Name, "zone_solve:") {
			zones++
			zoneSum += v
			zoneMax = math.Max(zoneMax, v)
		} else {
			dur[s.Name] += v
		}
		ivs = append(ivs, iv{s.StartMicros, s.StartMicros + s.DurationMicros})
		// The daemon's spans join the benchmark's timeline under the
		// cycle span; explain runs inside extract.
		parent := rd.cycleSpan
		if s.Name == "explain" && extract >= 0 {
			parent = extract
		}
		id := rd.tr.child(parent, "daemon:"+s.Name, s.StartMicros*1000, s.DurationMicros*1000)
		if s.Name == "extract" {
			extract = id
		}
	}
	// Self time is the cycle minus the union of its spans (spans nest:
	// explain runs inside extract, zone solves overlap).
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	for _, x := range ivs {
		if x.a > reach {
			reach = x.a
		}
		if x.b > reach {
			covered += x.b - reach
			reach = x.b
		}
	}
	cycleMs := float64(tv.DurationMicros) / 1000
	l.add("daemon.cycle_self_ms", cycleMs-float64(covered)/1000)
	l.add("coverage", cycleMs/ms(wall))
	l.add("obs.spans_per_cycle", float64(len(tv.Spans)))
	for span, metric := range map[string]string{
		"inventory_snapshot": "control.inventory_snapshot_ms",
		"build_problem":      "control.build_problem_ms",
		"forecast":           "control.forecast_ms",
		"extract":            "control.extract_ms",
		"explain":            "control.explain_ms",
		"apply":              "scheduler.apply_ms",
		"demand_update":      "daemon.demand_update_ms",
		"publish":            "daemon.publish_ms",
		"journal":            "daemon.journal_ms",
		"snapshot":           "daemon.snapshot_ms",
		"shard_rebalance":    "shard.rebalance_ms",
		"merge_verify":       "shard.merge_verify_ms",
	} {
		if v, ok := dur[span]; ok {
			l.add(metric, v)
		}
	}
	solve := dur["solve"]
	if zones > 0 {
		// Zones solve concurrently: the slowest one is the critical path.
		solve = zoneMax
		l.add("shard.zone_solve_ms_max", zoneMax)
		l.add("shard.zone_solve_ms_sum", zoneSum)
		lo, hi := math.Inf(1), math.Inf(-1)
		moves := 0
		for _, st := range snap.Shards {
			lo, hi = math.Min(lo, st.Utilization), math.Max(hi, st.Utilization)
			moves += st.MovesIn
		}
		l.add("shard.zone_imbalance", hi-lo)
		l.add("shard.zone_moves", float64(moves))
	}
	l.add("core.solve_ms", solve)
	if cycleMs > 0 {
		l.add("core.solve_share", solve/cycleMs)
	}
	l.add("core.instance_changes", float64(snap.InstanceChanges))

	rd.timeBatch(snap)
	rd.timeFlow(snap)
	rd.timeRouter(snap)
	rd.timeForecast(snap)
	if err := rd.sampleStore(); err != nil {
		return err
	}
	if l.scrapes++; l.scrapes%8 == 1 {
		end := rd.tr.begin("obs.scrape")
		t0 := time.Now()
		body, err := rd.call("metrics_prom", http.MethodGet, "/v1/metrics/prom", nil)
		dt := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		l.add("obs.scrape_ms", ms(dt))
		l.add("obs.scrape_kb", float64(len(body))/1024)
	}
	return nil
}

// timeBatch times the batch model on the cycle's live job states:
// NewHypothetical plus one Predict at the cycle's batch allocation.
func (rd *round) timeBatch(snap *daemon.PlacementSnapshot) {
	l := rd.lay
	states := make([]batch.State, 0, len(snap.Jobs))
	for _, j := range snap.Jobs {
		spec, ok := l.specs[j.Name]
		if !ok {
			var err error
			if spec, err = dynplace.CompileJob(rd.chk.jobs[j.Name].JobSpec); err != nil {
				continue
			}
			l.specs[j.Name] = spec
		}
		states = append(states, batch.State{Spec: spec, Done: j.DoneMcycles})
	}
	l.add("batch.live_jobs", float64(len(states)))
	if len(states) == 0 {
		return
	}
	hypo := func() {
		h, err := batch.NewHypothetical(snap.Time, states, nil)
		if err == nil {
			_ = h.Predict(snap.OmegaGMHz)
		}
	}
	end := rd.tr.begin("batch.hypothetical")
	t0 := time.Now()
	hypo()
	l.add("batch.hypothetical_us", us(time.Since(t0)))
	end()
	l.add("batch.hypothetical_allocs", float64(mallocs(hypo)))
}

func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// timeFlow routes the cycle's web allocations onto their hosting nodes
// with a max-flow network shaped like the allocator's: source → app
// (allocation) → hosting node (node CPU) → sink (CPU left after jobs).
// It times a fresh build against a reset-and-reuse of the same graph.
func (rd *round) timeFlow(snap *daemon.PlacementSnapshot) {
	l := rd.lay
	type edge struct {
		u, v int
		c    float64
	}
	nodeIdx := map[string]int{}
	var edges []edge
	nApps := len(snap.Web)
	free := map[string]float64{}
	for _, n := range snap.Nodes {
		free[n.Name] = n.CPUMHz
	}
	for _, j := range snap.Jobs {
		if j.Node != "" {
			free[j.Node] -= j.SpeedMHz
		}
	}
	for i, w := range snap.Web {
		edges = append(edges, edge{0, 1 + i, w.AllocMHz})
		for _, in := range w.Instances {
			k, ok := nodeIdx[in.Node]
			if !ok {
				k = len(nodeIdx)
				nodeIdx[in.Node] = k
			}
			edges = append(edges, edge{1 + i, 1 + nApps + k, free[in.Node]})
		}
	}
	if len(nodeIdx) == 0 {
		return
	}
	sink := 1 + nApps + len(nodeIdx)
	for name, k := range nodeIdx {
		edges = append(edges, edge{1 + nApps + k, sink, math.Max(0, free[name])})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	var g *flow.Network
	var refs []flow.EdgeRef
	build := func() {
		g = flow.NewNetwork(sink + 1)
		refs = refs[:0]
		for _, e := range edges {
			ref, err := g.AddEdge(e.u, e.v, e.c)
			if err != nil {
				return
			}
			refs = append(refs, ref)
		}
		_, _ = g.MaxFlow(0, sink)
	}
	end := rd.tr.begin("flow.build_route")
	t0 := time.Now()
	build()
	l.add("flow.build_route_us", us(time.Since(t0)))
	end()
	l.add("flow.build_allocs", float64(mallocs(build)))
	end = rd.tr.begin("flow.reuse_route")
	t0 = time.Now()
	g.Reset()
	for i, e := range edges {
		_ = g.SetCapacity(refs[i], e.c)
	}
	_, _ = g.MaxFlow(0, sink)
	l.add("flow.reuse_route_us", us(time.Since(t0)))
	end()
}

// timeRouter replays the cycle's routing tables on a bare router with
// no instruments attached: publish, single dispatches and a batch.
func (rd *round) timeRouter(snap *daemon.PlacementSnapshot) {
	l := rd.lay
	tables := make(map[string][]router.Instance, len(snap.Web))
	for _, w := range snap.Web {
		ins := make([]router.Instance, 0, len(w.Instances))
		for _, in := range w.Instances {
			ins = append(ins, router.Instance{Node: in.Node, PowerMHz: in.PowerMHz})
		}
		tables[w.Name] = ins
	}
	end := rd.tr.begin("router.publish_bare")
	t0 := time.Now()
	l.bare.Publish(tables)
	l.add("router.publish_us", us(time.Since(t0)))
	end()
	const n = 1024
	for _, w := range snap.Web {
		if len(w.Instances) == 0 {
			continue
		}
		end := rd.tr.begin("router.dispatch_bare")
		t0 := time.Now()
		for k := 0; k < n; k++ {
			_, _ = l.bare.DispatchBalanced(w.Name)
		}
		l.add("router.dispatch_bare_ns", float64(time.Since(t0).Nanoseconds())/n)
		end()
		end = rd.tr.begin("router.batch_bare")
		t0 = time.Now()
		_, _ = l.bare.DispatchBatch(w.Name, n)
		l.add("router.batch_ns", float64(time.Since(t0).Nanoseconds())/n)
		end()
	}
}

// timeForecast feeds each app's delivered rate over the window that
// just closed into the benchmark's own estimator and times the calls.
func (rd *round) timeForecast(snap *daemon.PlacementSnapshot) {
	l := rd.lay
	for _, w := range snap.Web {
		e, ok := l.est[w.Name]
		if !ok {
			e = forecast.NewEstimator(forecast.Config{LevelTauSeconds: 2 * rd.T, TrendTauSeconds: 2 * rd.T})
			l.est[w.Name] = e
		}
		x := rd.rates[w.Name]
		end := rd.tr.begin("forecast.observe")
		t0 := time.Now()
		e.Observe(snap.Time, x)
		l.add("forecast.observe_ns", float64(time.Since(t0).Nanoseconds()))
		end()
		end = rd.tr.begin("forecast.forecast")
		t0 = time.Now()
		pred, ok := e.Forecast(snap.Time, rd.T)
		l.add("forecast.forecast_ns", float64(time.Since(t0).Nanoseconds()))
		end()
		if ok {
			e.NotePrediction(snap.Time+rd.T, pred, x)
		}
	}
}

// finishForecast records the forecast error: the daemon's own when it
// forecasts, otherwise the benchmark estimator's on the same rates.
func (rd *round) finishForecast() error {
	l := rd.lay
	if l == nil {
		return nil
	}
	var sumAPE float64
	var scored int64
	for _, name := range sortedKeys(l.est) {
		s := l.est[name].Stats()
		if rd.forecasting {
			body, err := rd.call("forecast", http.MethodGet, "/v1/apps/"+name+"/forecast", nil)
			if err != nil {
				return err
			}
			var v daemon.ForecastView
			if err := json.Unmarshal(body, &v); err != nil {
				return fmt.Errorf("decoding forecast view: %w", err)
			}
			s = v.Stats
		}
		sumAPE += s.MAPE * float64(s.Scored)
		scored += s.Scored
	}
	if scored > 0 {
		l.add("forecast.mape", sumAPE/float64(scored))
	}
	return nil
}

// sampleStore reads the durable store's counters after each cycle.
func (rd *round) sampleStore() error {
	l := rd.lay
	body, err := rd.call("state", http.MethodGet, "/v1/state", nil)
	if err != nil {
		return err
	}
	var v daemon.DurabilityView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decoding /v1/state: %w", err)
	}
	if !v.Enabled {
		return nil
	}
	if l.lastSeq > 0 {
		l.add("store.records_per_cycle", float64(v.Store.Seq-l.lastSeq))
		if d := v.Store.WALBytes - l.lastWAL; d >= 0 {
			l.add("store.wal_bytes_per_cycle", float64(d))
		}
	}
	l.lastSeq, l.lastWAL = v.Store.Seq, v.Store.WALBytes
	if v.Store.SnapshotBytes > 0 {
		l.add("store.snapshot_bytes", float64(v.Store.SnapshotBytes))
	}
	return nil
}
