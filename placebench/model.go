package main

import (
	"math"

	"dynplace"
)

// The benchmark scores decisions with its own copy of the paper's
// models instead of asking the program, so a change that breaks the
// program's model cannot also hide it from the score.

// webResponse is the paper's transactional model: t = t₀ + c/(ω − λc),
// with ω capped at the app's maximum useful power. ok is false when the
// allocation cannot sustain the arrival rate.
func webResponse(a dynplace.WebAppSpec, rate, omega float64) (t float64, ok bool) {
	if rate == 0 {
		return a.BaseLatency, true
	}
	if a.MaxPowerMHz > 0 && omega > a.MaxPowerMHz {
		omega = a.MaxPowerMHz
	}
	lc := rate * a.DemandPerRequest
	if omega <= lc {
		return math.Inf(1), false
	}
	return a.BaseLatency + a.DemandPerRequest/(omega-lc), true
}

// webUtilityRaw is u = (τ − t)/τ without the benchmark's clamp.
func webUtilityRaw(a dynplace.WebAppSpec, rate, omega float64) (float64, bool) {
	t, ok := webResponse(a, rate, omega)
	if !ok {
		return math.Inf(-1), false
	}
	return (a.GoalResponseTime - t) / a.GoalResponseTime, true
}

// webUtility is the realized relative performance of one window,
// clamped at −1 ("SLA fully blown") so one unstable window cannot
// dominate a mean.
func webUtility(a dynplace.WebAppSpec, rate, omega float64) float64 {
	u, _ := webUtilityRaw(a, rate, omega)
	return math.Max(-1, u)
}

// jobUtility is the paper's equation (2): u = (τ − t)/(τ − τ_start).
func jobUtility(j jobSpec, completedAt float64) float64 {
	return (j.Deadline - completedAt) / (j.Deadline - j.DesiredStart)
}

// jobSpec is a submitted job as the benchmark knows it, absolute times.
type jobSpec struct {
	dynplace.JobSpec
	// minExec is Σ work/maxSpeed over the stages: no schedule can finish
	// the job sooner after it is submitted.
	minExec float64
}

func newJobSpec(s dynplace.JobSpec) jobSpec {
	if s.DesiredStart == 0 {
		s.DesiredStart = s.Submit
	}
	j := jobSpec{JobSpec: s}
	if len(s.Stages) == 0 {
		j.minExec = s.WorkMcycles / s.MaxSpeedMHz
	}
	for _, st := range s.Stages {
		j.minExec += st.WorkMcycles / st.MaxSpeedMHz
	}
	return j
}

// memoryAt is the job's footprint once done megacycles are complete.
func (j jobSpec) memoryAt(done float64) float64 {
	if len(j.Stages) == 0 {
		return j.MemoryMB
	}
	for _, st := range j.Stages {
		if done < st.WorkMcycles {
			return st.MemoryMB
		}
		done -= st.WorkMcycles
	}
	return j.Stages[len(j.Stages)-1].MemoryMB
}
