package sensor_test

import (
	"testing"

	"repro/internal/fleet/fleettest"
	"repro/internal/sensor"
)

// TestFleetIdenticalOnBothKernelPaths runs the fleet-level comparison with
// this package's vector kernel on and off.
func TestFleetIdenticalOnBothKernelPaths(t *testing.T) {
	fleettest.IdenticalOnBothKernelPaths(t, sensor.ForcePortableKernels)
}
