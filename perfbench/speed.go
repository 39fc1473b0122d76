package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is a shared VM whose core speed drifts
// by ±15 % over tens of seconds: a run's latencies, CPU per op and
// set-up all move by the same factor (their ratios vary by 2–8 % from
// run to run while each moves by 10–20 %). A run therefore also times a
// fixed kernel between ops and reports its times at the reference
// speed: each is multiplied by refKernelMs over the kernel's median in
// that run. The kernel is benchmark code, so a change to the program
// moves the reported times in full; only the host's drift cancels.

const (
	// refKernelMs is the kernel's median time on the 2-vCPU x86 VM the
	// benchmark was tuned on, so reported times read close to raw ones.
	refKernelMs = 0.45
	// speedEvery spaces the kernel samples, keeping their share of the
	// run near 1 %.
	speedEvery = 50 * time.Millisecond
)

// The kernel's data: 18 KiB, cache-resident, allocated once, so its time
// depends on neither the program's heap nor its garbage collector.
var (
	kernBuf = make([]int32, 512)
	kernTab = make([]uint32, 4096)
)

// kernelRound is fixed integer work: xorshift draws, a sort and
// data-dependent table updates.
func kernelRound() {
	x := uint64(88172645463325252)
	for i := range kernBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		kernBuf[i] = int32(x)
	}
	slices.Sort(kernBuf)
	for i := 0; i < len(kernTab); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(kernTab)-1)
		if kernTab[j]&1 == 0 {
			kernTab[j] += uint32(x)
		} else {
			kernTab[(j*7+1)&uint64(len(kernTab)-1)] ^= kernTab[j] >> 3
		}
	}
}

// kernel times eight rounds after one untimed round that brings the
// data back into cache after an op.
func kernel() time.Duration {
	kernelRound()
	t := time.Now()
	for r := 0; r < 8; r++ {
		kernelRound()
	}
	return time.Since(t)
}

// speedMeter samples the kernel at most once per speedEvery.
type speedMeter struct {
	last    time.Time
	samples []float64 // ms
}

func (s *speedMeter) tick() {
	if time.Since(s.last) < speedEvery {
		return
	}
	s.samples = append(s.samples, float64(kernel())/float64(time.Millisecond))
	s.last = time.Now()
}

// factor converts a time measured in this run to the reference speed.
func (s *speedMeter) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refKernelMs / quantile(s.samples, 0.5)
}
