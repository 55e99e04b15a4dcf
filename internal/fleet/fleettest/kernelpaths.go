// Package fleettest holds the fleet-level check that the packages with
// assembly kernels on the capture path (imaging, isp, codec) each run from
// their own tests, with their own switch.
package fleettest

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/nn"
)

// IdenticalOnBothKernelPaths is the fleet-level end of a package's twin
// contract. forcePortable turns that package's vector kernels off and
// returns the function that turns them back on. With them on and off, at
// full and at half resolution, three devices of every cohort capture the
// same decoded samples and encoded sizes, and a small mixed-runtime run
// renders the same stats bytes, the capture-size summary among them.
func IdenticalOnBothKernelPaths(t *testing.T, forcePortable func() (restore func())) {
	t.Helper()
	items := dataset.GenerateHard(2, 3).Items
	factory := func(runtime string) nn.Backend {
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.Width = 0.4
		return nn.NewRuntimeBackend(runtime, nn.NewMobileNetV2Micro(rand.New(rand.NewSource(5)), cfg))
	}
	for _, scale := range []int{1, 2} {
		gen, engine := fleet.NewGenerator(7, scale, 64), fleet.NewEngine(7, scale, 0)
		for id := 0; id < 15; id++ {
			d := gen.Device(id)
			for i, it := range items {
				got, gotSize := engine.Capture(d, it, i)
				restore := forcePortable()
				want, wantSize := engine.Capture(d, it, i)
				restore()
				if gotSize != wantSize {
					t.Fatalf("scale %d device %d (%s) item %d: %d bytes on the vector kernels, %d on the Go ones", scale, id, d.Cohort, i, gotSize, wantSize)
				}
				for j, v := range got.Pix {
					if math.Float32bits(v) != math.Float32bits(want.Pix[j]) {
						t.Fatalf("scale %d device %d (%s) item %d: sample %d = %v on the vector kernels, %v on the Go ones", scale, id, d.Cohort, i, j, v, want.Pix[j])
					}
				}
				imaging.PutImage(got)
				imaging.PutImage(want)
			}
		}

		cfg := fleet.Config{Devices: 15, Items: 2, Angles: []int{0, 2}, Seed: 99, TopK: 3, Scale: scale, Workers: 2}
		vector := fleet.NewRunner(cfg, factory).Run().JSON()
		restore := forcePortable()
		portable := fleet.NewRunner(cfg, factory).Run().JSON()
		restore()
		if !bytes.Equal(vector, portable) {
			t.Fatalf("scale %d: stats differ between the kernel paths:\n%s\nvs\n%s", scale, vector, portable)
		}
	}
}
