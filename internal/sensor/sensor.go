// Package sensor simulates a phone camera's optics and CMOS sensor: lens
// blur, vignetting, chromatic shift, spectral response, Bayer mosaic
// sampling, photon shot noise, read noise and ADC quantization. It stands in
// for the physical cameras of the paper's five lab phones; the per-device
// parameters are what make two phones photograph the same scene differently.
package sensor

import (
	"math"
	"sync"

	"repro/internal/imaging"
)

// Params describes one device's optical and sensor characteristics.
type Params struct {
	// Optics.
	BlurSigma      float64 // lens point-spread approximated as Gaussian, pixels
	Vignette       float64 // corner falloff strength, 0 = none, 0.3 = strong
	ChromaticShift float64 // horizontal R/B plane shift in pixels (lateral CA)

	// Spectral response: per-channel sensitivities. Real sensors differ in
	// their color filter arrays; values near 1.
	GainR, GainG, GainB float64

	// Exposure multiplier applied before noise (auto-exposure differences).
	Exposure float64

	// Noise model. Shot noise std = ShotNoise*sqrt(signal); read noise is
	// additive Gaussian with std ReadNoise (both in normalized [0,1] units).
	ShotNoise float64
	ReadNoise float64

	// ADC bit depth for the raw output (10 or 12 on real phones).
	BitDepth int
}

// DefaultParams returns a neutral mid-range sensor.
func DefaultParams() Params {
	return Params{
		BlurSigma: 0.6, Vignette: 0.10, ChromaticShift: 0.2,
		GainR: 1, GainG: 1, GainB: 1,
		Exposure: 1.0, ShotNoise: 0.02, ReadNoise: 0.008, BitDepth: 10,
	}
}

// BayerPattern enumerates the 2×2 color-filter layouts.
type BayerPattern int

// Supported Bayer layouts.
const (
	RGGB BayerPattern = iota
	BGGR
	GRBG
)

// RawImage is a single-plane Bayer mosaic as read from the (simulated) ADC,
// normalized to [0,1].
type RawImage struct {
	W, H    int
	Pattern BayerPattern
	Plane   []float32
	Bits    int
}

// ColorAt returns which color channel (0=R,1=G,2=B) the mosaic samples at
// (x,y) for the image's pattern.
func (r *RawImage) ColorAt(x, y int) int {
	return bayerColor(r.Pattern, x, y)
}

func bayerColor(p BayerPattern, x, y int) int {
	// index within the 2x2 tile
	i := (y%2)*2 + x%2
	switch p {
	case RGGB:
		return [4]int{0, 1, 1, 2}[i]
	case BGGR:
		return [4]int{2, 1, 1, 0}[i]
	default: // GRBG
		return [4]int{1, 0, 2, 1}[i]
	}
}

// Sensor captures scenes according to its parameters. It is stateless; all
// randomness comes from the source passed to Capture, so captures are
// reproducible and two captures with different draws model two shutter
// presses (the paper's Figure 1 situation).
type Sensor struct {
	Params  Params
	Pattern BayerPattern
}

// New returns a sensor with the given parameters and an RGGB mosaic.
func New(p Params) *Sensor { return &Sensor{Params: p, Pattern: RGGB} }

// captureScratch holds the per-capture row buffers. Sensors are stateless
// and may be shared across workers, so the scratch lives in a pool rather
// than on the Sensor; every buffer is fully rewritten before it is read, so
// reuse cannot leak state between captures.
type captureScratch struct {
	dx2    []float64 // (x-cx)² per column, shared by every row's vignette
	noise  []float64 // the row's two normal draws a pixel, shot then read
	sample []float32 // the row's samples, chromatic shift applied
}

var scratchPool = sync.Pool{New: func() any { return new(captureScratch) }}

func (s *captureScratch) grow(w int) {
	if cap(s.dx2) < w {
		s.dx2 = make([]float64, w)
		s.noise = make([]float64, 2*w)
		s.sample = make([]float32, w)
	}
	s.dx2, s.noise, s.sample = s.dx2[:w], s.noise[:2*w], s.sample[:w]
}

// Normals is the source a capture draws its noise from: *Noise, whose row
// fill draws a row's normals a block at a time, or any other, such as a
// *rand.Rand, drawn one NormFloat64 call at a time. Both draw the same
// values from the same seed.
type Normals interface{ NormFloat64() float64 }

// Capture exposes the sensor to a scene and returns the raw Bayer frame.
// The scene is the irradiance arriving at the lens (linear RGB in [0,1]).
//
// The mosaic runs a row at a time in two passes. The first draws the row's
// two normals a pixel, shot then read, in pixel order, and reads each
// pixel's channel through the chromatic-aberration sampler; the second
// (mosaicRow) does the per-pixel float arithmetic — vignette, gain, black
// clamp, noise, clamp, ADC — on the vector unit where the machine has one.
// No draw depends on a sample, so drawing a row ahead consumes the stream
// the fused loop did, pair by pair. Hoisted: the vignette's dy² per row and
// dx² per column, and clamp-free interior chromatic-aberration sampling via
// caSampleFast. Every operation matches the staged reference in
// fused_test.go bit for bit.
func (s *Sensor) Capture(scene *imaging.Image, rng Normals) *RawImage {
	return s.CaptureInto(new(RawImage), scene, rng)
}

// CaptureInto is Capture with a caller-provided frame whose plane buffer is
// reused when large enough — the allocation-free form the fleet's capture
// arenas use. Every header field and plane sample is overwritten. A *Noise
// source fills each row's 2w normals in one NormFloat64s call; any other
// source is called once a normal, which is the row fill's reference.
func (s *Sensor) CaptureInto(raw *RawImage, scene *imaging.Image, rng Normals) *RawImage {
	p := s.Params
	img := scene

	// Optics: lens blur as a full-image pass; the lateral chromatic
	// aberration and vignette are folded into the mosaic sampling below
	// (each Bayer sample needs exactly one channel, so resampling and
	// scaling whole planes first would be wasted work). The blurred frame
	// lives in a pooled image for the duration of the mosaic loop.
	var blurred *imaging.Image
	if p.BlurSigma > 0 {
		blurred = imaging.GaussianBlurInto(imaging.GetImage(img.W, img.H), img, p.BlurSigma)
		img = blurred
	}

	w, h := img.W, img.H
	n := w * h
	if cap(raw.Plane) < n {
		raw.Plane = make([]float32, n)
	}
	raw.W, raw.H, raw.Pattern, raw.Plane, raw.Bits = w, h, s.Pattern, raw.Plane[:n], p.BitDepth
	gains := [3]float64{p.GainR * p.Exposure, p.GainG * p.Exposure, p.GainB * p.Exposure}
	// The Bayer color only depends on pixel parity; a 2×2 table replaces a
	// per-pixel pattern switch.
	var ctab [2][2]int
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			ctab[y][x] = bayerColor(s.Pattern, x, y)
		}
	}
	shift := float32(p.ChromaticShift)
	cx := float64(float64(w-1) / 2)
	cy := float64(float64(h-1) / 2)
	k := mosaicConsts{
		vig:    p.Vignette,
		maxR2:  float64(cx*cx) + float64(cy*cy),
		shot:   p.ShotNoise,
		read:   p.ReadNoise,
		levels: float64(int(1)<<p.BitDepth - 1),
	}
	if p.Vignette > 0 {
		k.flags |= vignetted
	}
	if p.ShotNoise != 0 || p.ReadNoise != 0 {
		k.flags |= noisy
	}

	sc := scratchPool.Get().(*captureScratch)
	sc.grow(w)
	dx2, noise, sample := sc.dx2, sc.noise, sc.sample
	fill, _ := rng.(*Noise)
	for x := 0; x < w; x++ {
		dx := float64(x) - cx
		dx2[x] = float64(dx * dx)
	}

	pix := img.Pix
	// Interior column ranges where the chromatic-aberration taps are
	// provably clamp-free (±1 margin against float32 rounding of x−s near
	// integer boundaries): there the sampler skips math.Floor and all four
	// edge clamps while performing the identical float32 arithmetic.
	caLoR, caHiR := caInterior(w, shift)
	caLoB, caHiB := caInterior(w, -shift)
	for y := 0; y < h; y++ {
		crow := ctab[y&1]
		rowOff := y * w
		// Every capture consumes the same two draws a pixel whatever the
		// parameters (a noiseless one ignores them), so callers that reuse
		// one source across captures stay aligned.
		if fill != nil {
			fill.NormFloat64s(noise)
		} else {
			for x := range noise {
				noise[x] = rng.NormFloat64()
			}
		}
		for xp := 0; xp < 2 && xp < w; xp++ {
			c := crow[xp]
			plane := pix[c*n+rowOff : c*n+rowOff+w]
			switch {
			case shift != 0 && c == 0:
				caRow(sample, plane, xp, shift, caLoR, caHiR)
			case shift != 0 && c == 2:
				caRow(sample, plane, xp, -shift, caLoB, caHiB)
			default:
				for x := xp; x < w; x += 2 {
					sample[x] = plane[x]
				}
			}
			k.gains[xp], k.gains[xp+2] = gains[c], gains[c]
		}
		dy := float64(y) - cy
		k.dy2 = float64(dy * dy)
		mosaicRow(raw.Plane[rowOff:rowOff+w], sample, noise, dx2, &k)
	}
	scratchPool.Put(sc)
	if blurred != nil {
		imaging.PutImage(blurred)
	}
	return raw
}

// mosaicConsts is what mosaicRow needs besides the row: its layout is read
// by the vector kernel (vector_amd64.s).
type mosaicConsts struct {
	gains                               [4]float64 // by x mod 4: even, odd, even, odd
	dy2, vig, maxR2, shot, read, levels float64
	flags                               uint64
}

// mosaicConsts.flags.
const (
	vignetted = 1 << iota // Vignette > 0
	noisy                 // ShotNoise or ReadNoise non-zero
)

// mosaicRow is the per-pixel arithmetic of one row: dst[x] is the ADC level
// of sample[x] after the vignette, the channel gain, the black clamp, the
// shot and read noise of draws noise[2x] and noise[2x+1], and the clamp to
// 1. The vector kernel takes the whole vectors of 4 it reports, the Go loop
// the rest. Each product is rounded before it is added.
func mosaicRow(dst, sample []float32, noise, dx2 []float64, k *mosaicConsts) {
	for x := mosaicRowVector(dst, sample, noise, dx2, k); x < len(dst); x++ {
		s := sample[x]
		if k.flags&vignetted != 0 {
			// dy² is hoisted per row and dx² per column; the original
			// expression is otherwise untouched.
			s *= float32(1 - k.vig*(dx2[x]+k.dy2)/k.maxR2)
		}
		v := float64(float64(s) * k.gains[x&3])
		if v < 0 {
			v = 0
		}
		if k.flags&noisy != 0 {
			// Photon shot noise scales with sqrt(signal); read noise is
			// signal-independent. Gaussian approximations to the Poisson
			// and thermal processes.
			v += float64(noise[2*x]*k.shot*math.Sqrt(v)) + float64(noise[2*x+1]*k.read)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
		} else if v > 1 {
			// v ≥ 0 after the black clamp and adding the exactly-zero noise
			// terms would be the identity, so only the upper clamp can fire.
			v = 1
		}
		// ADC quantization.
		dst[x] = float32(math.Round(v*k.levels) / k.levels)
	}
}

// caInterior returns the inclusive column range where floor(x−s) and its
// right neighbour are guaranteed in [0, w−1] and x−s ≥ 0, with a ±1 safety
// margin so float32 rounding near integer boundaries cannot cross out.
func caInterior(w int, s float32) (lo, hi int) {
	// A non-finite or absurd shift gets an empty interior so every column
	// takes the clamped caSample path, which is total for any shift.
	if !(s > -1e6 && s < 1e6) {
		return w, -1
	}
	lo = int(math.Ceil(float64(s))) + 1
	if lo < 0 {
		lo = 0
	}
	hi = w - 3 + int(math.Floor(float64(s)))
	return lo, hi
}

// caRow sets sample[x] to caSampleFast(row, x, w, s, lo, hi) for the columns
// x of parity xp of a w-wide row: the vector kernel takes a run of them
// inside [lo, hi], caSampleFast the rest.
func caRow(sample, row []float32, xp int, s float32, lo, hi int) {
	w := len(row)
	v0, v1 := caRowVector(sample, row, xp, s, lo, hi)
	for x := xp; x < v0; x += 2 {
		sample[x] = caSampleFast(row, x, w, s, lo, hi)
	}
	for x := v1; x < w; x += 2 {
		sample[x] = caSampleFast(row, x, w, s, lo, hi)
	}
}

// caSampleFast is caSample with the clamp-free interior path: inside
// [lo, hi] the int conversion is exact truncation (== floor for
// non-negative values) and no edge clamp can fire, so both paths perform
// the identical float32 arithmetic per sample.
func caSampleFast(row []float32, x, w int, s float32, lo, hi int) float32 {
	if x >= lo && x <= hi {
		fx := float32(x) - s
		x0 := int(fx)
		frac := fx - float32(x0)
		return float32(row[x0]*(1-frac)) + float32(row[x0+1]*frac)
	}
	return caSample(row, x, w, s)
}

// caSample reads one plane sample displaced horizontally by s pixels with
// bilinear interpolation and edge clamping.
func caSample(row []float32, x, w int, s float32) float32 {
	fx := float32(x) - s
	x0 := int(math.Floor(float64(fx)))
	frac := fx - float32(x0)
	x1 := x0 + 1
	if x0 < 0 {
		x0 = 0
	} else if x0 >= w {
		x0 = w - 1
	}
	if x1 < 0 {
		x1 = 0
	} else if x1 >= w {
		x1 = w - 1
	}
	return float32(row[x0]*(1-frac)) + float32(row[x1]*frac)
}
