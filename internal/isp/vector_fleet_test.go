package isp_test

import (
	"testing"

	"repro/internal/fleet/fleettest"
	"repro/internal/isp"
)

// TestFleetIdenticalOnBothKernelPaths runs the fleet-level comparison with
// this package's vector kernels on and off.
func TestFleetIdenticalOnBothKernelPaths(t *testing.T) {
	fleettest.IdenticalOnBothKernelPaths(t, isp.ForcePortableKernels)
}
