package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU VM five consecutive runs
// of diurnal-web read a raw median cycle of 4.6 to 7.3 ms, in wall and
// in CPU time alike, and a fixed calibration mix drifted with it. Every
// round therefore times that mix after every calibEvery-th cycle, after
// every set-up and after every recovery, and every end-to-end timing is
// scaled by calibRefMs over the calibrations taken around it: timings
// read as milliseconds of a host that runs the mix in calibRefMs. The raw
// figures are printed too.
const (
	calibEvery = 5
	calibRefMs = 2.0
)

// The calibration mix works on buffers allocated once, so it neither
// triggers a GC itself nor depends on the heap the cycles leave behind:
// a hash over 32 KB, a random walk over a 4 MB table and a sort.
var (
	calibBuf   = make([]byte, 1<<15)
	calibTable = make([]uint64, 1<<19)
	calibSrc   = func() []float64 {
		xs := make([]float64, 1<<13)
		for k := range xs {
			xs[k] = float64((k * 7919) % 100003)
		}
		return xs
	}()
	calibDst  = make([]float64, 1<<13)
	calibSink uint64
)

// calibrate times the calibration mix, in milliseconds: the fastest of
// three passes, so a pass that a background GC shared the CPU with does
// not count.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for k := 0; k < 6; k++ {
			s := sha256.Sum256(calibBuf)
			calibSink += uint64(s[0])
		}
		x := uint64(pass + 1)
		for k := 0; k < 100000; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			calibTable[x>>45] += x
		}
		copy(calibDst, calibSrc)
		sort.Float64s(calibDst)
		calibSink += uint64(calibDst[0])
		best = min(best, time.Since(t0))
	}
	return ms(best)
}

// calibrateNow times the calibration mix and records it at the current
// offset of the round.
func (rd *round) calibrateNow() { rd.calib.add(calibrate(), rd.since()) }

// factorAt is the factor that scales a timing taken at offset at to the
// reference host: calibRefMs over the median of the five calibrations
// nearest in time, so that a drift within the round is followed too.
func (rd *round) factorAt(at time.Duration) float64 {
	c := rd.calib
	n := len(c.v)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return c.at[i] >= at })
	lo, hi := i-2, i+3
	if lo < 0 {
		hi, lo = hi-lo, 0
	}
	if hi > n {
		lo, hi = max(0, lo-(hi-n)), n
	}
	return calibRefMs / median(c.v[lo:hi])
}
