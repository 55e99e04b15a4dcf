package isp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fmath"
	"repro/internal/imaging"
)

// Every vector kernel has a Go twin it must match bit for bit. The tests
// here run one pass on both — the kernels as this machine dispatches them,
// then with useVector forced off — in place, over plane sizes with every
// vector remainder and over the values where a re-expressed clamp, square
// root, conversion or table lookup could differ. On a build or machine
// without vector kernels both runs take the Go path and the tests pass
// trivially; the GOARCH=386 CI leg runs them to keep that build compiling.

// portable runs f with the vector kernels forced off.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

var (
	negZero = math.Float32frombits(1 << 31)
	posInf  = float32(math.Inf(1))
	// cpuNaN is the NaN the processor makes of Inf-Inf or 0·Inf; math.NaN
	// has the sign bit clear. A pass that combines two samples is fed this
	// NaN alone: which of two different NaN operands an operation returns
	// depends on the operand order the compiler chose, which no twin can
	// promise to match.
	cpuNaN = math.Float32frombits(0xffc00000)
)

// oddSamples are zeros of both signs, denormals, the edges of the curve
// table's domain and their neighbours, magnitudes past every integer
// conversion and infinities.
func oddSamples() []float32 {
	return []float32{0, negZero, 1e-45, -1e-45, 1e-39, -1e-39, 1, 3.9999998, 4, 4.0000005, 16, -3,
		1e9, -1e9, 1e30, -1e30, math.MaxFloat32, -math.MaxFloat32, posInf, -posInf}
}

// randomImage fills a w×h image, starting off elements into its allocation
// so that no kernel can lean on 32-byte alignment, with samples in
// [-0.25, 1.25) and about one in eight drawn from odd.
func randomImage(rng *rand.Rand, w, h int, odd []float32) *imaging.Image {
	im := &imaging.Image{W: w, H: h, Pix: make([]float32, 3*w*h+7)[1+rng.Intn(7):][:3*w*h]}
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()*1.5 - 0.25
		if len(odd) > 0 && rng.Intn(8) == 0 {
			im.Pix[i] = odd[rng.Intn(len(odd))]
		}
	}
	return im
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: sample %d = %v (%#x), the Go loop gives %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// bakedLUTs returns every curve table the built-in pipelines compile, the
// plain clamp among them, and one of noise, whose neighbouring entries differ
// in sign and size.
func bakedLUTs() [][]float32 {
	luts := [][]float32{bakeTable([]curveFn{fmath.Clamp01})}
	for _, p := range allPipelines() {
		for _, s := range Fuse(p).Stages {
			if s, ok := s.(lut); ok {
				luts = append(luts, s.table)
			}
		}
	}
	rng := rand.New(rand.NewSource(301))
	noise := make([]float32, lutSize)
	for i := range noise {
		noise[i] = float32(rng.NormFloat64())
	}
	return append(luts, noise)
}

// recovered runs f and returns what it panicked with, as text, or "".
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestVectorApplyLUTMatchesGo runs every baked curve over planes of widths 1
// to 67, with and without odd samples: values at and past the end of the
// table's domain saturate in both paths, and a -0 interpolates from entry 0
// with a fraction of -0 in both.
func TestVectorApplyLUTMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for li, lut := range bakedLUTs() {
		for w := 1; w <= 67; w++ {
			var odd []float32
			if w%2 == 0 {
				odd = oddSamples()[:14] // up to ±1e9: an index every int holds
			}
			got := randomImage(rng, w, 1+w%5, odd)
			want := append([]float32(nil), got.Pix...)
			applyLUT(got.Pix, lut)
			portable(func() { applyLUT(want, lut) })
			sameBits(t, fmt.Sprintf("lut %d %dx%d", li, got.W, got.H), got.Pix, want)
		}
	}
}

// TestVectorApplyLUTHandsBack feeds the samples whose table index Go does not
// take from a 32-bit conversion — 2³¹ and beyond, where it saturates, and
// 2⁶³ and beyond, infinities and NaNs, where it panics on the index — in
// every lane of a vector and in the tail. The kernel must leave each to the
// Go loop: the two paths saturate alike or panic alike, with the same samples
// written before the panic.
func TestVectorApplyLUTHandsBack(t *testing.T) {
	lut := bakedLUTs()[0]
	for _, v := range []float32{4.5e12, 1e19, 1e30, math.MaxFloat32, posInf, cpuNaN, float32(math.NaN())} {
		for at := 0; at < 27; at++ {
			got := make([]float32, 27)
			for i := range got {
				got[i] = float32(i) / 20
			}
			got[at] = v
			want := append([]float32(nil), got...)
			gotPanic := recovered(func() { applyLUT(got, lut) })
			var wantPanic string
			portable(func() { wantPanic = recovered(func() { applyLUT(want, lut) }) })
			what := fmt.Sprintf("%v at %d", v, at)
			if gotPanic != wantPanic {
				t.Fatalf("%s: panic %q, the Go loop's is %q", what, gotPanic, wantPanic)
			}
			sameBits(t, what, got, want)
		}
	}
}

// TestVectorApplyMatrixMatchesGo mixes channels with the fleet's saturation
// matrices, an auto-white-balance diagonal and a matrix of noise, over odd
// samples too; the NaN among those is the processor's, since a mix adds
// products of different samples.
func TestVectorApplyMatrixMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	matrices := [][9]float32{SaturationMatrix(1.2).M, SaturationMatrix(0.95).M, {1.31, 0, 0, 0, 1, 0, 0, 0, 0.84}, {}}
	for i := range matrices[3] {
		matrices[3][i] = float32(rng.NormFloat64())
	}
	for mi := range matrices {
		for w := 1; w <= 67; w++ {
			var odd []float32
			if w%2 == 0 {
				odd = append(oddSamples(), cpuNaN)
			}
			got := randomImage(rng, w, 1+w%5, odd)
			want := &imaging.Image{W: got.W, H: got.H, Pix: append([]float32(nil), got.Pix...)}
			applyMatrix(got, &matrices[mi])
			portable(func() { applyMatrix(want, &matrices[mi]) })
			sameBits(t, fmt.Sprintf("matrix %d %dx%d", mi, got.W, got.H), got.Pix, want.Pix)
		}
	}
}

// TestVectorUnsharpMatchesGo sharpens in place against a second random plane
// at several amounts, over odd samples in both.
func TestVectorUnsharpMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	for _, amount := range []float32{0.25, 0.45, 0.5, -1, 0, 1e20} {
		for w := 1; w <= 67; w++ {
			var odd []float32
			if w%2 == 0 {
				odd = append(oddSamples(), cpuNaN)
			}
			got, blur := randomImage(rng, w, 1+w%5, odd), randomImage(rng, w, 1+w%5, odd)
			want := append([]float32(nil), got.Pix...)
			unsharp(got.Pix, blur.Pix, amount)
			portable(func() { unsharp(want, blur.Pix, amount) })
			sameBits(t, fmt.Sprintf("amount %v %dx%d", amount, got.W, got.H), got.Pix, want)
		}
	}
}

// TestVectorFusedProcessMatchesGo runs every built-in pipeline whole on both
// paths: the passes above in the order and on the data a capture gives them.
func TestVectorFusedProcessMatchesGo(t *testing.T) {
	for _, size := range [][2]int{{64, 64}, {32, 32}, {18, 10}} {
		raw := noisyRaw(11, size[0], size[1])
		for _, p := range allPipelines() {
			f := Fuse(p)
			got := f.Process(raw)
			var want *imaging.Image
			portable(func() { want = f.Process(raw) })
			sameBits(t, fmt.Sprintf("%s %dx%d", p.Name, size[0], size[1]), got.Pix, want.Pix)
		}
	}
}
