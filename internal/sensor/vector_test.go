package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// The vector kernel has a Go twin it must match bit for bit. The test runs
// whole captures on both — the kernel as this machine dispatches it, then
// with useVector forced off — from one seed, over frame sizes with every
// vector remainder and over the samples where a re-expressed clamp, square
// root or rounding could differ. On a build or machine without the kernel
// both runs take the Go path and the test passes trivially; the GOARCH=386
// CI leg runs it to keep that build compiling.

// portable runs f with the vector kernel forced off.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

var (
	negZero = math.Float32frombits(1 << 31)
	posInf  = float32(math.Inf(1))
	// cpuNaN is the NaN the processor makes of Inf-Inf or 0·Inf; it is the
	// only NaN a scene holds here, since which of two different NaN operands
	// an operation returns depends on the operand order the compiler chose.
	cpuNaN = math.Float32frombits(0xffc00000)
)

// oddScene is a w×h scene of samples uniform in [-0.25, 1.25) but for about
// one in four drawn from zeros of both signs, denormals, infinities, the NaN
// and 0.5, which every odd ADC level count puts on an exact .5 tie when gain
// and vignette are 1.
func oddScene(rng *rand.Rand, w, h int) *imaging.Image {
	odd := []float32{0, negZero, 1e-45, -1e-45, 1e-39, -1e-39, 1, 0.5, 0.5, 0.5, posInf, -posInf, cpuNaN, 1e30, -1e30}
	im := imaging.New(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()*1.5 - 0.25
		if rng.Intn(4) == 0 {
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

// TestVectorCaptureMatchesGo captures odd scenes of widths 1 to 67 and
// heights 1 to 19 on both paths, for every pattern value, with chromatic
// shift and vignette on and off, noisy and noiseless, at ADC depths whose
// level counts put 0.5 on a tie (1, 2, 3 bits) and at the fleet's 10 and 12.
func TestVectorCaptureMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	params := []Params{
		DefaultParams(),
		{Vignette: 0.25, ChromaticShift: -0.35, GainR: 1.03, GainG: 1, GainB: 0.96, Exposure: 1.1, ShotNoise: 0.03, ReadNoise: 0.01, BitDepth: 12},
		{GainR: 1, GainG: 1, GainB: 1, Exposure: 1, BitDepth: 1},
		{GainR: 1, GainG: 1, GainB: 1, Exposure: 1, BitDepth: 2, ShotNoise: 0.02},
		{Vignette: 0.1, GainR: 1, GainG: 1, GainB: 1, Exposure: 1, BitDepth: 3, ReadNoise: 0.01},
		{ChromaticShift: 0.2, GainR: 1, GainG: 1, GainB: 1, Exposure: 1, BitDepth: 10},
	}
	for w := 1; w <= 67; w++ {
		for h := 1; h <= 19; h += 1 + w%3 {
			scene := oddScene(rng, w, h)
			p := params[(w+h)%len(params)]
			p.BlurSigma = 0
			s := &Sensor{Params: p, Pattern: BayerPattern((w + 2*h) % 4)}
			seed := rng.Int63()
			got := s.Capture(scene, rand.New(rand.NewSource(seed)))
			var want *RawImage
			portable(func() { want = s.Capture(scene, rand.New(rand.NewSource(seed))) })
			sameBits(t, fmt.Sprintf("%dx%d pattern %d params %+v", w, h, s.Pattern, p), got.Plane, want.Plane)
		}
	}
}

// TestVectorMosaicRowTies feeds the row kernel samples on and next to every
// .5 tie of a 10-bit ADC, and signed zeros and the NaN, with and without
// noise: math.Round's half-away-from-zero and its signed zero are emulated,
// not an instruction.
func TestVectorMosaicRowTies(t *testing.T) {
	const levels = 1023
	w := 4 * 2 * levels
	sample := make([]float32, w)
	for i := range sample {
		// (k+0.5)/levels and its float32 neighbours.
		v := float32((float64(i/2) + 0.5) / levels)
		if i%2 == 1 {
			v = math.Nextafter32(v, 2)
		}
		sample[i] = v
	}
	sample[0], sample[1], sample[2], sample[5] = negZero, cpuNaN, 0, negZero
	dx2 := make([]float64, w)
	rng := rand.New(rand.NewSource(402))
	noise := make([]float64, 2*w) // each pixel's shot draw, then its read draw
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	for _, flags := range []uint64{0, noisy, vignetted, noisy | vignetted} {
		k := mosaicConsts{gains: [4]float64{1, 1, 1, 1}, dy2: 3, vig: 0.01, maxR2: 50, shot: 1e-9, read: 1e-12, levels: levels, flags: flags}
		got, want := make([]float32, w), make([]float32, w)
		mosaicRow(got, sample, noise, dx2, &k)
		portable(func() { mosaicRow(want, sample, noise, dx2, &k) })
		sameBits(t, fmt.Sprintf("flags %d", flags), got, want)
	}
}
