package main

import (
	"fmt"
	"os"
)

// stealMeter measures how much of an interval's runnable CPU time the
// hypervisor withheld from this guest ("steal" in /proc/stat). On a
// shared virtual machine steal comes and goes over minutes and can halve
// throughput; it says nothing about the program. Every leg therefore
// reports its times as wall × (1 − steal share): the time the vCPUs
// actually ran. Where /proc/stat is missing or reports no steal (bare
// metal, other systems) the factor is 1 and the times are plain wall
// clock.
type stealMeter struct{ busy, steal int64 }

// minTicks is the shortest interval, in 10 ms scheduler ticks of busy plus
// stolen time, over which a steal share is trusted: below it the tick
// counters are too coarse and the factor stays 1.
const minTicks = 20

// cpuTicks reads the aggregate cpu line of /proc/stat: ticks spent
// running (user, nice, system, irq, softirq) and ticks stolen.
func cpuTicks() (busy, steal int64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	var user, nice, system, idle, iowait, irq, softirq int64
	n, _ := fmt.Sscanf(string(raw), "cpu %d %d %d %d %d %d %d %d",
		&user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal)
	if n < 8 { // old kernels have no steal column: nothing to correct
		return 0, 0, false
	}
	return user + nice + system + irq + softirq, steal, true
}

func startSteal() stealMeter {
	busy, steal, _ := cpuTicks()
	return stealMeter{busy, steal}
}

// share returns the stolen share of the runnable CPU time since start.
func (m stealMeter) share() float64 {
	busy, steal, ok := cpuTicks()
	busy, steal = busy-m.busy, steal-m.steal
	if !ok || busy+steal < minTicks || steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// ran returns the share of the runnable CPU time since start that the
// vCPUs really ran: the factor that takes the steal out of a wall time.
func (m stealMeter) ran() float64 { return 1 - m.share() }

// scaleAll multiplies every value of every slice by f.
func scaleAll(f float64, slices ...[]float64) {
	for _, s := range slices {
		for i := range s {
			s[i] *= f
		}
	}
}
