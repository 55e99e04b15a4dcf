package sensor

import (
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// BenchmarkSensorCapture measures the mosaic hot loop per parameter
// combination, so a regression is attributable to a specific row kernel
// (CA lanes, vignette pass, noise pass) rather than the end-to-end number.
// BlurSigma is zero throughout: Gaussian blur is imaging's benchmark, not
// the mosaic loop's.
func BenchmarkSensorCapture(b *testing.B) {
	scene := imaging.New(64, 64)
	prng := rand.New(rand.NewSource(1))
	for i := range scene.Pix {
		scene.Pix[i] = prng.Float32()
	}
	base := DefaultParams()
	base.BlurSigma = 0
	cases := []struct {
		name string
		mod  func(*Params)
	}{
		{"full", func(p *Params) {}},
		{"no-ca", func(p *Params) { p.ChromaticShift = 0 }},
		{"no-vignette", func(p *Params) { p.Vignette = 0 }},
		{"noiseless", func(p *Params) { p.ShotNoise, p.ReadNoise = 0, 0 }},
		{"plain", func(p *Params) {
			p.ChromaticShift, p.Vignette, p.ShotNoise, p.ReadNoise = 0, 0, 0, 0
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := base
			c.mod(&p)
			s := New(p)
			var noise Noise // the fleet's source
			noise.Seed(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Capture(scene, &noise)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "captures/sec")
		})
	}
}

// BenchmarkNoiseFrame draws one 64×64 frame's noise from a fresh seed, as a
// capture does: a Seed, then 64 rows of 128 normals, from math/rand one
// call at a time and from Noise a row fill at a time, dispatched and on the
// Go loops.
func BenchmarkNoiseFrame(b *testing.B) {
	row := make([]float64, 128)
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		rng := rand.New(src)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			for y := 0; y < 64; y++ {
				for x := range row {
					row[x] = rng.NormFloat64()
				}
			}
		}
	})
	var n Noise
	frame := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n.Seed(int64(i))
			for y := 0; y < 64; y++ {
				n.NormFloat64s(row)
			}
		}
	}
	b.Run("noise", frame)
	b.Run("noise-portable", func(b *testing.B) { portable(func() { frame(b) }) })
}
