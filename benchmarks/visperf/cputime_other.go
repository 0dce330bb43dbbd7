//go:build !linux

package main

// threadCPU is unavailable here; step latencies stay wall clock.
func threadCPU() (int64, bool) { return 0, false }
