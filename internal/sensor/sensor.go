// Package sensor simulates a phone camera's optics and CMOS sensor: lens
// blur, vignetting, chromatic shift, spectral response, Bayer mosaic
// sampling, photon shot noise, read noise and ADC quantization. It stands in
// for the physical cameras of the paper's five lab phones; the per-device
// parameters are what make two phones photograph the same scene differently.
package sensor

import (
	"math"
	"math/rand"
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
// randomness comes from the rng passed to Capture, so captures are
// reproducible and two captures with different rng draws model two shutter
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
	dx2 []float64 // (x-cx)² per column, shared by every row's vignette
}

var scratchPool = sync.Pool{New: func() any { return new(captureScratch) }}

func (s *captureScratch) grow(w int) {
	if cap(s.dx2) < w {
		s.dx2 = make([]float64, w)
	}
	s.dx2 = s.dx2[:w]
}

// Capture exposes the sensor to a scene and returns the raw Bayer frame.
// The scene is the irradiance arriving at the lens (linear RGB in [0,1]).
//
// The mosaic loop stays fused — one pass per pixel, Gaussian draws consumed
// inline in shot-then-read order — because that measured fastest: batching
// the draws into a scratch row (tried here first) costs an extra 16 B/pixel
// round trip through L1 with no vectorization payoff to amortize it, ~10%
// end to end. What is hoisted instead: the vignette's dy² per row and dx²
// per column, and clamp-free interior chromatic-aberration sampling via
// caSampleFast. Every remaining operation matches the staged reference in
// fused_test.go bit for bit.
func (s *Sensor) Capture(scene *imaging.Image, rng *rand.Rand) *RawImage {
	return s.CaptureInto(new(RawImage), scene, rng)
}

// CaptureInto is Capture with a caller-provided frame whose plane buffer is
// reused when large enough — the allocation-free form the fleet's capture
// arenas use. Every header field and plane sample is overwritten.
func (s *Sensor) CaptureInto(raw *RawImage, scene *imaging.Image, rng *rand.Rand) *RawImage {
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
	levels := float64(int(1)<<p.BitDepth - 1)
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
	maxR2 := float64(cx*cx) + float64(cy*cy)

	sc := scratchPool.Get().(*captureScratch)
	sc.grow(w)
	// Local slice header: the loop below interleaves function calls
	// (NormFloat64, Sqrt, Round) with loads, and a field access would be
	// reloaded around every call.
	dx2 := sc.dx2
	for x := 0; x < w; x++ {
		dx := float64(x) - cx
		dx2[x] = float64(dx * dx)
	}
	noiseless := p.ShotNoise == 0 && p.ReadNoise == 0
	shot, read := p.ShotNoise, p.ReadNoise
	vig := p.Vignette

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
		dst := raw.Plane[rowOff : rowOff+w]
		dy := float64(y) - cy
		dy2 := float64(dy * dy)
		for x := 0; x < w; x++ {
			c := crow[x&1]
			var sample float32
			switch {
			case shift != 0 && c == 0:
				sample = caSampleFast(pix[rowOff:rowOff+w], x, w, shift, caLoR, caHiR)
			case shift != 0 && c == 2:
				sample = caSampleFast(pix[2*n+rowOff:2*n+rowOff+w], x, w, -shift, caLoB, caHiB)
			default:
				sample = pix[c*n+rowOff+x]
			}
			if vig > 0 {
				// dy² is hoisted per row and dx² per column; the original
				// expression is otherwise untouched.
				sample *= float32(1 - vig*(dx2[x]+dy2)/maxR2)
			}
			v := float64(float64(sample) * gains[c])
			if v < 0 {
				v = 0
			}
			if !noiseless {
				// Photon shot noise scales with sqrt(signal); read noise
				// is signal-independent. Gaussian approximations to the
				// Poisson and thermal processes. The two draws stay inline
				// and in order — every capture consumes the same rng
				// stream whatever the parameters.
				v += float64(rng.NormFloat64()*shot*math.Sqrt(v)) + float64(rng.NormFloat64()*read)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
			} else {
				// The reference still draws the (zero-amplitude) noise so
				// the rng stream stays aligned for callers that reuse it
				// across captures; v ≥ 0 after the black clamp and adding
				// the exactly-zero terms is the identity, so only the
				// upper clamp can still fire.
				rng.NormFloat64()
				rng.NormFloat64()
				if v > 1 {
					v = 1
				}
			}
			// ADC quantization.
			dst[x] = float32(math.Round(v*levels) / levels)
		}
	}
	scratchPool.Put(sc)
	if blurred != nil {
		imaging.PutImage(blurred)
	}
	return raw
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
