package codec

import (
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// benchImage builds a deterministic noisy gradient at fleet capture
// resolution — representative content for the transform paths.
func benchImage(w, h int) *imaging.Image {
	rng := rand.New(rand.NewSource(3))
	im := imaging.New(w, h)
	n := w * h
	for c := 0; c < 3; c++ {
		plane := im.Pix[c*n : (c+1)*n]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				plane[y*w+x] = float32(x+y)/float32(w+h) + float32(rng.Float64()-0.5)*0.1
			}
		}
	}
	return im.Clamp()
}

// BenchmarkEncode covers the quant/DCT hot path per format; the frame goes
// back to the codec's pool as the fleet hands it back, so allocs/op counts
// only what an encode itself allocates. ref runs the Go kernels, which new
// does too on a machine without the vector ones (and for WebP's 4×4
// transforms everywhere).
func BenchmarkEncode(b *testing.B) {
	im := benchImage(112, 112)
	for _, c := range []Codec{NewJPEG(85), NewWebP(75), NewHEIF(85)} {
		run := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Release(c.Encode(im))
			}
		}
		b.Run(c.Name()+"/new", run)
		b.Run(c.Name()+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}

// BenchmarkDecode covers the dequant/IDCT + chroma upsampling path for both
// decoder variants (the paper's §7 divergence source), new and ref as above,
// into a pooled image as the fleet decodes.
func BenchmarkDecode(b *testing.B) {
	enc := NewJPEG(85).Encode(benchImage(112, 112))
	for _, c := range []struct {
		name string
		mode UpsampleMode
	}{{"bilinear", UpsampleBilinear}, {"nearest", UpsampleNearest}} {
		run := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				imaging.PutImage(enc.DecodeInto(DecodeOptions{ChromaUpsample: c.mode}, imaging.GetImage(enc.W, enc.H)))
			}
		}
		b.Run(c.name+"/new", run)
		b.Run(c.name+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}

// BenchmarkEntropyBits times the size model alone on the three planes of
// each format's encode of the benchmark image, new and ref as above.
func BenchmarkEntropyBits(b *testing.B) {
	im := benchImage(112, 112)
	for _, c := range []Codec{NewJPEG(85), NewWebP(75), NewHEIF(85)} {
		e := c.Encode(im)
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for p := range e.planes {
					entropyBits(&e.planes[p])
				}
			}
		}
		b.Run(c.Name()+"/new", run)
		b.Run(c.Name()+"/ref", func(b *testing.B) { portable(func() { run(b) }) })
	}
}
