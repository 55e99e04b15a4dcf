package imaging

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The filter benchmarks run each kernel beside the retired body it is
// diffed against (the ref* functions of the *_ref_test.go files) on a 64×64
// frame, the fleet's full-resolution capture size, so one
// `go test -bench . ./internal/imaging` prints both sides of every rewrite;
// where the kernel has a vector twin, portable is the same kernel on the Go
// loops.

func benchImage(w, h int) *Image {
	rng := rand.New(rand.NewSource(1))
	im := New(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

func BenchmarkMedianDenoise3(b *testing.B) {
	im, dst := benchImage(64, 64), New(64, 64)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MedianDenoise3Into(dst, im)
		}
	}
	b.Run("new", run)
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refMedianDenoise3Into(dst, im)
		}
	})
}

func BenchmarkBoxBlur(b *testing.B) {
	im, dst := benchImage(64, 64), New(64, 64)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BoxBlurInto(dst, im, 1)
		}
	}
	b.Run("new", run)
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refBoxBlurInto(dst, im, 1)
		}
	})
}

// BenchmarkGaussianBlur covers the four kernel widths a fleet draws — lens
// PSFs at half resolution reach radius 1, the jittered Apple unsharp sigma
// radius 4 — and one that takes the generic loop; ref is the Go path, which
// new is too on a machine without the vector kernel.
func BenchmarkGaussianBlur(b *testing.B) {
	im, dst := benchImage(64, 64), New(64, 64)
	for _, c := range []struct {
		name  string
		sigma float64
	}{{"r1", 0.3}, {"r2", 0.6}, {"r3", 0.9}, {"r4", 1.1}, {"r5", 1.5}} {
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GaussianBlurInto(dst, im, c.sigma)
			}
		}
		b.Run(c.name+"/new", run)
		b.Run(c.name+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}

// BenchmarkColourConversion times the codec's two conversions on a 64×64
// frame, the vector path beside the Go one.
func BenchmarkColourConversion(b *testing.B) {
	im, dst := benchImage(64, 64), New(64, 64)
	yc := RGBToYCbCr(im)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"RGBToYCbCr", func() { RGBToYCbCrInto(im, yc.Y, yc.Cb, yc.Cr) }},
		{"ToRGBQuant8", func() { yc.ToRGBQuant8Into(dst) }},
	} {
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		}
		b.Run(c.name+"/new", run)
		b.Run(c.name+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}

// BenchmarkModelInput times a 12-image batch into the model's input tensor,
// from captures at model resolution (32) and at full resolution (64, the
// exact 2:1 downscale).
func BenchmarkModelInput(b *testing.B) {
	for _, size := range []int{32, 64} {
		images := make([]*Image, 12)
		for i := range images {
			images[i] = benchImage(size, size)
		}
		x := tensor.New(len(images), 3, 32, 32)
		run := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BatchTensorInto(x, images)
			}
		}
		b.Run(fmt.Sprintf("new/%d", size), run)
		b.Run(fmt.Sprintf("portable/%d", size), func(b *testing.B) { portable(func() { run(b) }) })
		b.Run(fmt.Sprintf("ref/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			resized := make([]*Image, len(images))
			for i := 0; i < b.N; i++ {
				for j, im := range images {
					resized[j] = im
					if size != 32 {
						resized[j] = refResize(im, 32, 32)
					}
				}
				refBatchTensor(resized)
			}
		})
	}
}
