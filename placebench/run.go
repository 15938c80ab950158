package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynplace/internal/daemon"
)

// Every workload runs at GOMAXPROCS 1 (never above nproc) with the
// solver's candidate evaluation on one worker, so that timings do not
// depend on how the host schedules a second thread. fleet-churn's zone
// solves still run as concurrent goroutines.
const (
	benchProcs       = 1
	benchParallelism = 1
)

// workload is one input family the benchmark drives through the daemon.
type workload struct {
	name string
	// round runs one whole round: set-up, every timed cycle, and the
	// kill-and-recover leg. Every round of a run replays the same
	// inputs, so the quality figures of all rounds must agree.
	round func(rd *round) error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one invocation: as many whole rounds of one workload as fit
// into the requested seconds (at least one).
type run struct {
	w       *workload
	seed    int64
	seconds float64

	acct       accounting
	violations []string
}

func newRun(w *workload, seed int64, seconds float64) *run {
	return &run{w: w, seed: seed, seconds: seconds, acct: accounting{}}
}

func (r *run) failCheck(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.violations) < 20 {
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
	r.violations = append(r.violations, msg)
}

// playRounds runs rounds until the next one would overrun the budget.
// traced selects whether the rounds record per-layer spans.
func (r *run) playRounds(budget time.Duration, traced bool) ([]*round, error) {
	begin := time.Now()
	var out []*round
	var last time.Duration
	for len(out) == 0 || time.Since(begin)+last <= budget {
		rd := newRound(r, traced)
		t0 := time.Now()
		if err := r.w.round(rd); err != nil {
			return out, err
		}
		last = time.Since(t0)
		out = append(out, rd)
		rd.heapLiveMB = rd.release()
	}
	return out, nil
}

// release drops the round's daemon and returns the live heap it held:
// the live heap after a forced GC with the daemon reachable, less the
// live heap after it is dropped. The difference is the program's own
// footprint, free of the benchmark's samples.
func (rd *round) release() float64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(rd.d)
	rd.d, rd.h, rd.clk, rd.plan = nil, nil, nil, nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	rd.chk = nil
	return float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / (1 << 20)
}

// untraced is the end-to-end pass.
func (r *run) untraced() (map[string]metric, error) {
	rounds, err := r.playRounds(time.Duration(r.seconds*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	r.checkRoundsAgree(rounds)
	return r.endToEnd(rounds), nil
}

// endToEnd folds the rounds into the end-to-end metrics.
func (r *run) endToEnd(rounds []*round) map[string]metric {
	var setup, wall, cpu, alloc, disp, rec, heap, calib []float64
	var rawWall, rawCPU []float64
	for i, rd := range rounds {
		fmt.Printf("round %d: %s\n", i+1, rd.summary())
		heap = append(heap, rd.heapLiveMB)
		calib = append(calib, rd.calib.v...)
		setup = append(setup, rd.setupS.scaled(rd)...)
		for _, c := range rd.cycles {
			f := rd.factorAt(c.at)
			wall = append(wall, c.wallMs*f)
			cpu = append(cpu, c.cpuMs*f)
			rawWall = append(rawWall, c.wallMs)
			rawCPU = append(rawCPU, c.cpuMs)
			alloc = append(alloc, c.allocKB)
		}
		disp = append(disp, rd.dispatchNs.scaled(rd)...)
		rec = append(rec, rd.recoverS.scaled(rd)...)
	}
	fmt.Printf("raw: calibration_ms_p50=%.4f cycle_ms_p50=%.4f cycle_ms_p90=%.4f cycle_cpu_ms_p50=%.4f (timings below are scaled to a %.1f ms calibration)\n",
		median(calib), median(rawWall), percentile(rawWall, 90), median(rawCPU), calibRefMs)
	q := rounds[0].q
	m := map[string]metric{
		"setup_s":            {median(setup), "s"},
		"cycle_ms_p50":       {median(wall), "ms"},
		"cycle_ms_p90":       {percentile(wall, 90), "ms"},
		"cycle_cpu_ms_p50":   {median(cpu), "ms"},
		"cycle_alloc_kb_p50": {median(alloc), "KB"},
		"heap_live_mb":       {median(heap), "MB"},
		"web_utility_mean":   {q.webMean(), "utility"},
		"job_utility_mean":   {q.jobMean(), "utility"},
		"jobs_on_time":       {float64(q.onTime), "count"},
		"placement_changes":  {float64(q.changes), "count"},
		"dispatch_ns_p50":    {median(disp), "ns"},
		"recover_s":          {median(rec), "s"},
	}
	fmt.Printf("samples: rounds=%d cycles=%d (p90 has %d beyond) setups=%d dispatch-blocks=%d recoveries=%d\n",
		len(rounds), len(wall), len(wall)-int(math.Ceil(0.9*float64(len(wall)))), len(setup), len(disp), len(rec))
	return m
}

// summary is one line of the round's own medians, for reading how much
// of a run's spread is between rounds.
func (rd *round) summary() string {
	var wall, cpu []float64
	for _, c := range rd.cycles {
		wall = append(wall, c.wallMs)
		cpu = append(cpu, c.cpuMs)
	}
	return fmt.Sprintf("calib=%.3f cycles=%d cycle_ms_p50=%.3f cycle_cpu_ms_p50=%.3f setup_s=%.5f dispatch_ns_p50=%.1f recover_s=%.5f",
		median(rd.calib.v), len(rd.cycles), median(wall), median(cpu), median(rd.setupS.v), median(rd.dispatchNs.v), median(rd.recoverS.v))
}

// checkRoundsAgree asserts determinism: every round replays the same
// inputs, so every decision-quality figure must repeat exactly.
func (r *run) checkRoundsAgree(rounds []*round) {
	for i := 1; i < len(rounds); i++ {
		if rounds[i].q != rounds[0].q {
			r.failCheck("round %d quality %+v differs from round 1 %+v", i+1, rounds[i].q, rounds[0].q)
		}
	}
}

// quality is the round's decision-quality record, computed by the
// benchmark from what the daemon published and what it was fed.
type quality struct {
	webSum  float64
	webN    int
	jobSum  float64
	jobN    int
	onTime  int
	changes int
}

func (q quality) webMean() float64 {
	if q.webN == 0 {
		return 0
	}
	return q.webSum / float64(q.webN)
}

func (q quality) jobMean() float64 {
	if q.jobN == 0 {
		return 0
	}
	return q.jobSum / float64(q.jobN)
}

// deliveryNoise bounds the relative deviation of a window's delivered
// traffic from the rate the daemon was told.
const deliveryNoise = 0.02

type cycleSample struct {
	wallMs, cpuMs, allocKB float64
	at                     time.Duration
}

// series is one timing's samples in a round, each with its offset from
// the round's start.
type series struct {
	v  []float64
	at []time.Duration
}

func (s *series) add(v float64, at time.Duration) {
	s.v = append(s.v, v)
	s.at = append(s.at, at)
}

// scaled returns the samples scaled to the reference host.
func (s *series) scaled(rd *round) []float64 {
	out := make([]float64, len(s.v))
	for i, v := range s.v {
		out[i] = v * rd.factorAt(s.at[i])
	}
	return out
}

// since is the offset of now from the round's start.
func (rd *round) since() time.Duration { return time.Since(rd.t0) }

// round is one replay of a workload's inputs through a fresh daemon.
type round struct {
	r   *run
	d   *daemon.Daemon
	h   http.Handler
	clk *daemon.SimClock
	T   float64
	chk *checker
	tr  *tracer // nil in untraced rounds
	lay *layerSamples
	// cycleSpan is the tracer's span of the cycle being read back.
	cycleSpan int

	// t0 is the round's start; every timing carries its offset from it
	// so that it can be scaled by the host speed measured around it.
	t0         time.Time
	setupS     series
	cycles     []cycleSample
	dispatchNs series
	recoverS   series
	calib      series
	heapLiveMB float64
	q          quality

	// plan is the placement governing the current window; rates and
	// integral track the arrival rate the benchmark actually delivers
	// so the window can be scored against it when it closes.
	plan      *daemon.PlacementSnapshot
	rates     map[string]float64
	integral  map[string]float64
	segStart  float64
	nextCycle float64
	cycleNo   int64
	// sample is how many requests per app and window go one at a time
	// through DispatchBalanced; with bulk set the rest of the window's
	// requests go through DispatchBatch, otherwise only the sample is
	// routed.
	sample int
	bulk   bool
	// noise draws the traffic actually delivered in each window: the
	// window's mean rate times 1±deliveryNoise. It is the only input the
	// run's seed reaches; the daemon is told the unperturbed rates.
	noise *rand.Rand
	// strict compares the daemon's predicted utility with the
	// benchmark's own model (exact for constant-rate apps).
	strict bool
	// forecasting is set when the daemon runs its demand forecaster.
	forecasting bool
	// beforeCycle, when set, runs after a window's requests are routed
	// and before the cycle that closes it.
	beforeCycle func() error
}

func newRound(r *run, traced bool) *round {
	rd := &round{
		r: r, sample: 512, rates: map[string]float64{}, integral: map[string]float64{},
		noise: rand.New(rand.NewSource(r.seed)), t0: time.Now(),
	}
	if traced {
		rd.tr = newTracer()
		rd.lay = newLayerSamples()
	}
	return rd
}

// setupReps is how many times each round sets up; setup_s is the
// median over all of a run's set-ups, and the last one is kept.
const setupReps = 15

// timeSetup runs fn as set-up setupReps times and records the process
// CPU time of each, so that fleet-churn's journaled registrations do not
// bring the shared disk's fsync latency into it. fn builds everything up
// to the first cycle; the undo it returns releases what a discarded
// set-up holds (nil when nothing).
func (rd *round) timeSetup(fn func() (undo func(), err error)) error {
	for i := 0; i < setupReps; i++ {
		end := rd.tr.begin("setup")
		c0 := cpuTime()
		undo, err := fn()
		rd.setupS.add((cpuTime() - c0).Seconds(), rd.since())
		end()
		rd.calibrateNow()
		if err != nil {
			return err
		}
		if i < setupReps-1 && undo != nil {
			undo()
		}
	}
	return nil
}

// attach makes d the round's daemon.
func (rd *round) attach(d *daemon.Daemon, clk *daemon.SimClock, T float64) {
	rd.d, rd.clk, rd.T = d, clk, T
	rd.h = d.Handler()
}

// call sends one request through the daemon's HTTP handler in process.
// The traced pass times mutating calls in process CPU time into the
// daemon.api_us.<kind> layer metrics. kind names the route family.
func (rd *round) call(kind, method, path string, body any) ([]byte, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	end := rd.tr.begin("daemon.api." + kind)
	c0 := cpuTime()
	rd.h.ServeHTTP(rec, req)
	cpu := cpuTime() - c0
	end()
	if method != http.MethodGet {
		rd.lay.add("daemon.api_us."+kind, us(cpu))
	}
	ok := rec.Code/100 == 2
	rd.r.acct.note("api "+method+" "+kind, ok)
	if !ok {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body.Bytes(), nil
}

// start begins the control loop; the first cycle fires at the current
// instant on the next advance.
func (rd *round) start() error {
	if err := rd.d.Start(); err != nil {
		return err
	}
	rd.nextCycle = rd.clk.Now()
	rd.segStart = rd.nextCycle
	return nil
}

// advanceTo moves virtual time to t, which must lie before the next
// cycle instant.
func (rd *round) advanceTo(t float64) {
	if t >= rd.nextCycle {
		panic(fmt.Sprintf("advanceTo(%g) would fire the cycle due at %g", t, rd.nextCycle))
	}
	if now := rd.clk.Now(); t > now {
		rd.clk.Advance(t - now)
	}
}

// deliver changes app's delivered arrival rate at virtual time t (the
// instant the load really moved, which may precede the report).
func (rd *round) deliver(app string, rate, t float64) {
	rd.integrate(t)
	rd.rates[app] = rate
}

func (rd *round) integrate(t float64) {
	if t <= rd.segStart {
		return
	}
	for name, rate := range rd.rates {
		rd.integral[name] += rate * (t - rd.segStart)
	}
	rd.segStart = t
}

// cycle closes the current window (scoring its plan and dispatching the
// requests it delivered), then advances to and times the next control
// cycle and checks what it published.
func (rd *round) cycle() error {
	if rd.plan != nil {
		if err := rd.closeWindow(); err != nil {
			return err
		}
	}
	if rd.beforeCycle != nil {
		if err := rd.beforeCycle(); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := rd.tr.begin("daemon.cycle")
	if rd.tr != nil {
		rd.cycleSpan = len(rd.tr.spans) - 1
	}
	c0 := cpuTime()
	t0 := time.Now()
	rd.clk.Advance(rd.nextCycle - rd.clk.Now())
	wall := time.Since(t0)
	c1 := cpuTime()
	end()
	runtime.ReadMemStats(&m1)
	rd.cycles = append(rd.cycles, cycleSample{
		wallMs:  ms(wall),
		cpuMs:   ms(c1 - c0),
		allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024,
		at:      rd.since(),
	})
	rd.cycleNo++
	if rd.cycleNo%calibEvery == 0 {
		rd.calibrateNow()
	}
	snap := rd.d.Placement()
	ok := snap.Cycle == rd.cycleNo && snap.Err == ""
	rd.r.acct.note("cycle", ok)
	if !ok {
		return fmt.Errorf("cycle %d: published cycle %d err %q", rd.cycleNo, snap.Cycle, snap.Err)
	}
	for _, v := range rd.chk.placement(snap) {
		rd.r.failCheck("cycle %d: %s", snap.Cycle, v)
	}
	if rd.strict {
		for _, v := range rd.chk.predictedUtility(snap, rd.rates) {
			rd.r.failCheck("cycle %d: %s", snap.Cycle, v)
		}
	}
	rd.q.changes += snap.Changes
	if rd.tr != nil {
		if err := rd.traceCycle(snap, wall); err != nil {
			return err
		}
	}
	rd.plan = snap
	rd.segStart = rd.nextCycle
	for name := range rd.integral {
		delete(rd.integral, name)
	}
	rd.nextCycle += rd.T
	return nil
}

// closeWindow scores the governing plan against the rate each app
// actually received over the window and routes those requests.
func (rd *round) closeWindow() error {
	rd.integrate(rd.nextCycle)
	for _, w := range rd.plan.Web {
		spec, ok := rd.chk.apps[w.Name]
		if !ok {
			continue
		}
		mean := rd.integral[w.Name] / rd.T * (1 + deliveryNoise*(2*rd.noise.Float64()-1))
		rd.q.webSum += webUtility(spec, mean, w.AllocMHz)
		rd.q.webN++
		if err := rd.dispatch(w, int(math.Round(mean*rd.T))); err != nil {
			return err
		}
	}
	return nil
}

// dispatch routes n requests for one app through the daemon's router:
// a fixed sample one at a time, timed in blocks, and the rest in one
// batch. Every landing node must host the app, and per-node counts
// must follow the published power shares.
func (rd *round) dispatch(w daemon.WebPlacementView, n int) error {
	if n <= 0 {
		return nil
	}
	const block = 128
	rt := rd.d.Router()
	counts := make(map[string]int, len(w.Instances))
	sample := rd.sample
	if sample > n {
		sample = n - n%block
	}
	end := rd.tr.begin("router.dispatch_balanced")
	for done := 0; done < sample; done += block {
		t0 := time.Now()
		for k := 0; k < block; k++ {
			node, err := rt.DispatchBalanced(w.Name)
			if err != nil || node == "" {
				rd.r.acct.noteN("dispatch", 1, 1)
				return fmt.Errorf("dispatch %s: node %q err %v", w.Name, node, err)
			}
			counts[node]++
		}
		rd.dispatchNs.add(float64(time.Since(t0).Nanoseconds())/block, rd.since())
	}
	end()
	if !rd.bulk {
		n = sample
	}
	end = rd.tr.begin("router.dispatch_batch")
	res, err := rt.DispatchBatch(w.Name, n-sample)
	end()
	if err != nil {
		rd.r.acct.noteN("dispatch", int64(n), int64(n-sample))
		return fmt.Errorf("dispatch batch %s: %w", w.Name, err)
	}
	for node, c := range res.PerNode {
		counts[node] += c
	}
	failed := int64(res.Queued + res.Rejected)
	rd.r.acct.noteN("dispatch", int64(n), failed)
	for _, v := range checkDispatch(w, counts, n) {
		rd.r.failCheck("cycle %d: %s", rd.plan.Cycle, v)
	}
	if failed > 0 {
		return fmt.Errorf("dispatch %s: %d of %d requests queued or rejected", w.Name, failed, n)
	}
	return nil
}

// scoreJobs folds completed jobs into the quality record and checks
// every submitted job is accounted for exactly once.
func (rd *round) scoreJobs() error {
	body, err := rd.call("list_jobs", http.MethodGet, "/v1/jobs", nil)
	if err != nil {
		return err
	}
	var view struct {
		Jobs []jobResultView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("decoding /v1/jobs: %w", err)
	}
	results := view.Jobs
	for _, v := range rd.chk.jobResults(results, rd.d.Placement()) {
		rd.r.failCheck("%s", v)
	}
	for _, res := range results {
		if !res.Completed {
			continue
		}
		spec := rd.chk.jobs[res.Name]
		u := jobUtility(spec, res.CompletedAt)
		rd.q.jobSum += u
		rd.q.jobN++
		if res.CompletedAt <= spec.Deadline {
			rd.q.onTime++
		}
	}
	return nil
}

// jobResultView mirrors the GET /v1/jobs entries the benchmark reads.
type jobResultView struct {
	Name        string  `json:"name"`
	Completed   bool    `json:"completed"`
	CompletedAt float64 `json:"completedAt"`
}

// accounting counts operations by kind.
type accounting map[string]*[2]int64

func (a accounting) note(kind string, ok bool) {
	var f int64
	if !ok {
		f = 1
	}
	a.noteN(kind, 1, f)
}

func (a accounting) noteN(kind string, attempted, failed int64) {
	c, ok := a[kind]
	if !ok {
		c = new([2]int64)
		a[kind] = c
	}
	c[0] += attempted
	c[1] += failed
}

func (a accounting) attempted() int64 {
	var n int64
	for _, c := range a {
		n += c[0]
	}
	return n
}

func (a accounting) failed() int64 {
	var n int64
	for _, c := range a {
		n += c[1]
	}
	return n
}

func (r *run) printAccounting() {
	kinds := make([]string, 0, len(r.acct))
	for k := range r.acct {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.acct[k]
		fmt.Printf("ops: %-28s attempted=%d failed=%d\n", k, c[0], c[1])
	}
	fmt.Printf("checks: violations=%d\n", len(r.violations))
}
