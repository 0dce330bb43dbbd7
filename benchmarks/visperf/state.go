package main

import (
	"math"
	"runtime"
	"time"
)

// The machine this benchmark runs on is a few vCPUs of a shared host, and
// what the neighbours do moves every workload's wall clock together: by up
// to ~35% while the sibling hardware thread of the vCPU's core is busy
// (spells of tens of milliseconds to minutes), by ~20% when memory latency
// rises (states that last many minutes). A dependent chain of ALU
// operations on the same vCPU stays within ±2% throughout, so none of it
// is clock frequency, and /proc/stat shows none of it as steal. No
// statistic of one run's wall times can take out a state that outlasts the
// run.
//
// So every measured leg is bracketed by two reference kernels the program
// under test has no part in, and its times are reported for the nominal
// machine: the one on which both kernels take their nominal time.
//
//   - the wide kernel keeps eight independent integer chains in flight, so
//     it is bound by issue width and slows (1.6x) when the core is shared;
//   - the memory kernel chases a dependent random walk through 8 MB it has
//     not touched since the previous leg, so it is bound by memory latency.
//
// A leg's slowdown index is (wide/nominal)^wideShare × (mem/nominal)^memShare,
// the geometric mean of the readings before and after it, and every time
// of the leg is divided by it. The two exponents are how strongly the
// workloads follow each kernel. They were fitted over all four workloads
// at once on recordings during which the machine changed state several
// times (README.md, "Steadiness", has the data): each metric's own fit
// scatters around the pair (wide 0.3–0.6, memory 0.4–1.3), and the
// correction is flat around it — (0.3, 0.8) and (0.45, 1.0) take out
// nearly as much. The kernels are timed on the thread's CPU clock, so
// steal, which the legs account for themselves, is not counted twice.
const (
	wideIters = 400_000
	memLoads  = 200_000
	memWords  = 1 << 20 // 8 MB of uint64

	wideShare = 0.4
	memShare  = 0.85

	// Nominal kernel times: this machine in the state it spends most of
	// its time in. On another machine the index differs from 1 by a
	// constant factor, which no comparison of two runs there sees.
	nominalWideNs = 2.1 // per iteration
	nominalMemNs  = 105 // per load
)

// machineState is one reading of the two reference kernels, in ns per
// iteration and ns per load.
type machineState struct{ wide, mem float64 }

// index is how much slower than nominal the machine ran when s was read.
func (s machineState) index() float64 {
	return math.Pow(s.wide/nominalWideNs, wideShare) * math.Pow(s.mem/nominalMemNs, memShare)
}

// stateProbe owns the memory kernel's buffer.
type stateProbe struct{ buf []uint64 }

func newStateProbe() *stateProbe {
	p := &stateProbe{buf: make([]uint64, memWords)}
	for i := range p.buf {
		p.buf[i] = uint64(i) * 2654435761
	}
	return p
}

// timeOnThread runs f on a locked OS thread and returns the CPU time that
// thread spent in it, or the wall time where the thread clock is missing.
func timeOnThread(f func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	cpu0, ok := threadCPU()
	f()
	if cpu1, _ := threadCPU(); ok {
		return float64(cpu1 - cpu0)
	}
	return float64(time.Since(start))
}

// read runs both kernels. The caller collects garbage first, so no
// concurrent mark phase shares the kernels' core or memory, and has run a
// leg since the previous reading, so the buffer is cold.
func (p *stateProbe) read() machineState {
	wide := timeOnThread(func() {
		var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
		for i := 0; i < wideIters; i++ {
			a = a*3 + 1
			b = b*5 + 2
			c = c*7 + 3
			d = d*9 + 4
			e ^= e<<3 + 5
			f ^= f>>5 + 6
			g += g<<2 ^ 7
			h += h>>3 ^ 8
		}
		runtime.KeepAlive(a + b + c + d + e + f + g + h)
	})
	mem := timeOnThread(func() {
		x := uint64(1)
		for i := 0; i < memLoads; i++ {
			x = p.buf[x&(memWords-1)]*6364136223846793005 + 1442695040888963407 + uint64(i)
		}
		runtime.KeepAlive(x)
	})
	return machineState{wide / wideIters, mem / memLoads}
}
