package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones an outside script computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// cpuTime is the process's CPU time, user and system, from
// clock_gettime(CLOCK_PROCESS_CPUTIME_ID): the accounting getrusage
// reports, at nanosecond rather than microsecond resolution (an API call
// takes about 10 µs). Unlike wall time it does not grow while the thread
// waits for the disk.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
