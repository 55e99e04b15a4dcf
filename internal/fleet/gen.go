package fleet

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fmath"
	"repro/internal/isp"
	"repro/internal/sensor"
)

// Device is one synthesized fleet member: the jittered profile plus its
// compiled capture path — a fused ISP and a sensor whose optical parameters
// are adapted to the fleet capture resolution.
type Device struct {
	ID      int
	Cohort  string // base lab phone this device was synthesized from
	Profile *device.Profile
	ISP     *isp.Pipeline
	// Sensor is the capture-resolution sensor: optical lengths (blur
	// sigma, chromatic shift) are expressed in pixels, so capturing at
	// SceneSize/scale requires dividing them by scale to keep the same
	// physical optics. Noise and gains are resolution-independent.
	Sensor *sensor.Sensor
}

// Generator synthesizes the fleet lazily. Device i is deterministic in
// (Seed, i) alone — workers on different machines could rebuild disjoint
// shards of the same fleet. Synthesized devices are kept in an LRU so the
// hot working set (up to cacheCap devices) pays profile synthesis and ISP
// compilation once.
type Generator struct {
	Seed  int64
	Scale int // capture resolution divisor the sensors are adapted to
	Bases []*device.Profile
	cache *LRU[int, *Device]
}

// NewGenerator returns a generator over the five lab-phone bases, adapting
// sensors to captures at SceneSize/scale (0 → 2), with an LRU of the given
// capacity (0 picks a default of 4096).
func NewGenerator(seed int64, scale, cacheCap int) *Generator {
	if scale <= 0 {
		scale = 2
	}
	if cacheCap <= 0 {
		cacheCap = 4096
	}
	return &Generator{Seed: seed, Scale: scale, Bases: device.LabPhones(), cache: NewLRU[int, *Device](cacheCap)}
}

// Device returns fleet member i, synthesizing it on cache miss. Bases are
// assigned round-robin so every cohort appears at every fleet size.
func (g *Generator) Device(i int) *Device {
	return g.cache.GetOrCompute(i, func() *Device {
		base := g.Bases[i%len(g.Bases)]
		name := fmt.Sprintf("%s/fleet-%05d", base.Name, i)
		profile := device.Synthesize(base, name, cellRNG(g.Seed, 0, int64(i)))
		params := profile.Sensor.Params
		params.BlurSigma /= float64(g.Scale)
		params.ChromaticShift /= float64(g.Scale)
		return &Device{
			ID:      i,
			Cohort:  base.Name,
			Profile: profile,
			ISP:     isp.Fuse(profile.ISP),
			Sensor:  sensor.New(params),
		}
	})
}

// Items returns the deterministic evaluation set a run with this (seed, n)
// photographs — the same dataset.GenerateHard stream NewRunner builds, so a
// serving request for (seed, items, item i) classifies exactly the object
// cell (item i) of a batch run with the same seed. Exported for the fleetd
// serving path, which materializes items per request stream rather than per
// run.
func Items(seed int64, n int) []*dataset.Item {
	return dataset.GenerateHard(n, fmath.Mix(seed, 3)).Items
}

// Cohorts returns the base phone names in fleet order.
func (g *Generator) Cohorts() []string {
	out := make([]string, len(g.Bases))
	for i, b := range g.Bases {
		out[i] = b.Name
	}
	return out
}
