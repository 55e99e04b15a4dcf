package isp

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/imaging"
	"repro/internal/sensor"
)

// BenchmarkDemosaic measures both interpolation kernels in isolation at the
// fleet capture resolution (32×32, the model input size) and at the rig's
// full 64×64, so interior-loop regressions are attributable to this layer.
func BenchmarkDemosaic(b *testing.B) {
	for _, sz := range []int{32, 64} {
		scene := imaging.New(sz, sz)
		prng := rand.New(rand.NewSource(2))
		for i := range scene.Pix {
			scene.Pix[i] = prng.Float32()
		}
		p := sensor.DefaultParams()
		p.BlurSigma = 0
		raw := sensor.New(p).Capture(scene, rand.New(rand.NewSource(3)))
		for _, tc := range []struct {
			name string
			algo DemosaicAlgorithm
		}{
			{"bilinear", DemosaicBilinear},
			{"edge", DemosaicEdgeAware},
		} {
			b.Run(tc.name+"/"+strconv.Itoa(sz), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					imaging.PutImage(Demosaic(raw, tc.algo)) // as the fleet recycles it
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
			})
		}
	}
}

// BenchmarkPipelineProcess runs each vendor's pipeline as written, unfused —
// what device.Profile.Capture executes — on the same 64×64 raw frame, so the
// cost of the unfused path shows beside the fleet's. As there, the result is
// kept rather than handed back to the pool.
func BenchmarkPipelineProcess(b *testing.B) {
	raw := noisyRaw(2, 64, 64)
	for _, p := range []*Pipeline{VendorSamsung(), VendorApple(), VendorHTC(), VendorLG(), VendorMotorola()} {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.Process(raw)
			}
		})
	}
}

// BenchmarkFusedProcess runs each vendor's fused pipeline on a 64×64 raw
// frame, the fleet's full-resolution capture: new takes the vector passes
// where the machine has them, ref the Go loops (the spatial filters are
// imaging's and take its dispatch on both sides).
func BenchmarkFusedProcess(b *testing.B) {
	raw := noisyRaw(2, 64, 64)
	for _, p := range []*Pipeline{VendorSamsung(), VendorApple(), VendorHTC(), VendorLG(), VendorMotorola()} {
		f := Fuse(p)
		run := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				imaging.PutImage(f.Process(raw))
			}
		}
		b.Run(p.Name+"/new", run)
		b.Run(p.Name+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}
