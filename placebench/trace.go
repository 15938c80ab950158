package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one per call into a
// layer's public surface, nested by the call stack of the single
// driving goroutine. A nil tracer records nothing, so the untraced pass
// pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the top level
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].DurNs = time.Since(t.t0).Nanoseconds() - t.spans[id].StartNs
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// child records a span that ran inside parent at an offset measured
// elsewhere: the daemon's own cycle spans, read back after the cycle.
func (t *tracer) child(parent int, name string, startNs, durNs int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: t.spans[parent].StartNs + startNs, DurNs: durNs})
	return id
}

// selfTimes sums each span name's duration and its self time: the
// duration less the union of its children's intervals (the daemon's
// zone solves overlap one another).
func (t *tracer) selfTimes() map[string][2]float64 {
	kids := make([][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.StartNs + s.DurNs})
		}
	}
	out := map[string][2]float64{}
	for i, s := range t.spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		for _, iv := range ivs {
			reach = max(reach, iv[0])
			if iv[1] > reach {
				covered += iv[1] - reach
				reach = iv[1]
			}
		}
		v := out[s.Name]
		v[0] += float64(s.DurNs) / 1e6
		v[1] += float64(s.DurNs-covered) / 1e6
		out[s.Name] = v
	}
	return out
}

// writeSpans writes every round's spans, one JSON object per line.
func writeSpans(path string, rounds []*round) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, rd := range rounds {
		for _, s := range rd.tr.spans {
			if err := enc.Encode(struct {
				Round int `json:"round"`
				span
			}{i + 1, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the per-layer self-time table of the traced
// rounds, largest first.
func printSelfTimes(rounds []*round) {
	total := map[string][2]float64{}
	for _, rd := range rounds {
		for name, v := range rd.tr.selfTimes() {
			t := total[name]
			t[0] += v[0]
			t[1] += v[1]
			total[name] = t
		}
	}
	names := sortedKeys(total)
	sort.SliceStable(names, func(i, j int) bool { return total[names[i]][1] > total[names[j]][1] })
	fmt.Println("self time by span (benchmark spans, traced rounds):")
	for _, n := range names {
		fmt.Printf("  %-32s total=%10.1fms self=%10.1fms\n", n, total[n][0], total[n][1])
	}
}
