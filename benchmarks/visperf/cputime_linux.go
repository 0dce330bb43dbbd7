package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has consumed, in
// nanoseconds. On a paravirtualised guest the kernel keeps stolen time
// out of it, so wall time minus this, over an interval in which the
// thread never blocks, is the time the hypervisor withheld — at
// nanosecond resolution, where /proc/stat only has 10 ms ticks. The
// caller must have locked its goroutine to the thread.
func threadCPU() (int64, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return ts.Nano(), true
}
