package wire

import (
	"sync/atomic"

	"visibility"
)

// CountedBuilds counts builds of the test-only kernel "test.counted",
// which adds one to its input.
var CountedBuilds atomic.Int64

func init() {
	kernels.builders["test.counted"] = func(map[string]float64) (KernelFunc, error) {
		CountedBuilds.Add(1)
		return func(_ visibility.Point, in float64) float64 { return in + 1 }, nil
	}
}
