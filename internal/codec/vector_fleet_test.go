package codec_test

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/fleet/fleettest"
)

// TestFleetIdenticalOnBothKernelPaths runs the fleet-level comparison with
// this package's vector kernels on and off.
func TestFleetIdenticalOnBothKernelPaths(t *testing.T) {
	fleettest.IdenticalOnBothKernelPaths(t, codec.ForcePortableKernels)
}
