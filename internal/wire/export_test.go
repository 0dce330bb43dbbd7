package wire

import (
	"sync/atomic"

	"visibility"
)

// CountedBuilds counts builds of the test-only kernel "test.counted",
// which adds one to its input.
var CountedBuilds atomic.Int64

// PendingPlans is how many plans Decode made that no Apply has taken and
// no cleanup has dropped yet.
func PendingPlans() int {
	decoded.mu.Lock()
	defer decoded.mu.Unlock()
	return len(decoded.m)
}

func init() {
	kernels.builders["test.counted"] = func(map[string]float64) (KernelFunc, error) {
		CountedBuilds.Add(1)
		return func(_ visibility.Point, in float64) float64 { return in + 1 }, nil
	}
}
