package nn_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/nn"
)

// TestFleetStatsIdenticalOnBothKernelPaths is the fleet-level end of the
// twin contract: a mixed-runtime run and an all-int8 run render the same
// stats bytes whether the backends' kernels were the vector ones or the Go
// ones. Width 0.4 leaves every remainder of the 4-channel tile.
func TestFleetStatsIdenticalOnBothKernelPaths(t *testing.T) {
	for _, width := range []float64{0.4, 1.0} {
		factory := func(runtime string) nn.Backend {
			cfg := nn.DefaultConfig(int(dataset.NumClasses))
			cfg.Width = width
			return nn.NewRuntimeBackend(runtime, nn.NewMobileNetV2Micro(rand.New(rand.NewSource(5)), cfg))
		}
		for _, cfg := range []fleet.Config{
			{Devices: 18, Items: 2, Angles: []int{0, 2}, Seed: 99, TopK: 3, Workers: 2},
			{Devices: 12, Items: 2, Angles: []int{1}, Seed: 77, TopK: 3, Workers: 2, Runtime: nn.RuntimeInt8},
		} {
			vector := fleet.NewRunner(cfg, factory).Run().JSON()
			restore := nn.ForcePortableKernels()
			portable := fleet.NewRunner(cfg, factory).Run().JSON()
			restore()
			if !bytes.Equal(vector, portable) {
				t.Fatalf("width %v runtime %q: stats differ between the kernel paths:\n%s\nvs\n%s", width, cfg.Runtime, vector, portable)
			}
		}
	}
}
