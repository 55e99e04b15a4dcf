package isp

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/imaging"
)

// Stage transforms an RGB image in place in the pipeline; implementations
// return a new image and must not mutate the input.
type Stage interface {
	Name() string
	Apply(*imaging.Image) *imaging.Image
}

// BlackLevel subtracts a pedestal and rescales so the remaining range maps
// to [0,1], as real sensor pipelines do before color processing.
type BlackLevel struct{ Level float32 }

// Name implements Stage.
func (s BlackLevel) Name() string { return "black_level" }

// Apply implements Stage.
func (s BlackLevel) Apply(im *imaging.Image) *imaging.Image {
	out := im.Clone()
	if s.Level <= 0 || s.Level >= 1 {
		return out
	}
	inv := 1 / (1 - s.Level)
	for i, v := range out.Pix {
		v -= s.Level
		if v < 0 {
			v = 0
		}
		out.Pix[i] = v * inv
	}
	return out
}

// WhiteBalance scales each channel. Mode Auto estimates gains gray-world
// style from the image itself (so two slightly different images receive
// slightly different gains — a real source of inter-shot divergence);
// mode Fixed applies the preset gains.
type WhiteBalance struct {
	Auto                bool
	GainR, GainG, GainB float32
	// Strength blends auto gains toward identity, modelling conservative
	// vendor tuning. 1 = full gray-world correction.
	Strength float32
}

// Name implements Stage.
func (s WhiteBalance) Name() string { return "white_balance" }

// Apply implements Stage.
func (s WhiteBalance) Apply(im *imaging.Image) *imaging.Image {
	gr, gg, gb := s.GainR, s.GainG, s.GainB
	if s.Auto {
		mr, mg, mb := im.Mean()
		if mr > 1e-6 && mg > 1e-6 && mb > 1e-6 {
			strength := s.Strength
			if strength == 0 {
				strength = 1
			}
			gr = 1 + float32((float32(mg/mr)-1)*strength)
			gb = 1 + float32((float32(mg/mb)-1)*strength)
			gg = 1
		} else {
			gr, gg, gb = 1, 1, 1
		}
	}
	out := im.Clone()
	n := im.W * im.H
	for i := 0; i < n; i++ {
		out.Pix[i] *= gr
		out.Pix[n+i] *= gg
		out.Pix[2*n+i] *= gb
	}
	return out
}

// ColorMatrix applies a 3×3 color-correction matrix (row-major).
type ColorMatrix struct{ M [9]float32 }

// Name implements Stage.
func (s ColorMatrix) Name() string { return "color_matrix" }

// Apply implements Stage.
func (s ColorMatrix) Apply(im *imaging.Image) *imaging.Image {
	out := imaging.New(im.W, im.H)
	n := im.W * im.H
	m := s.M
	for i := 0; i < n; i++ {
		r, g, b := im.Pix[i], im.Pix[n+i], im.Pix[2*n+i]
		out.Pix[i] = float32(m[0]*r) + float32(m[1]*g) + float32(m[2]*b)
		out.Pix[n+i] = float32(m[3]*r) + float32(m[4]*g) + float32(m[5]*b)
		out.Pix[2*n+i] = float32(m[6]*r) + float32(m[7]*g) + float32(m[8]*b)
	}
	return out
}

// IdentityMatrix is the no-op color matrix.
func IdentityMatrix() ColorMatrix {
	return ColorMatrix{M: [9]float32{1, 0, 0, 0, 1, 0, 0, 0, 1}}
}

// SaturationMatrix returns a color matrix that scales saturation by s
// around the luma axis.
func SaturationMatrix(s float32) ColorMatrix {
	const lr, lg, lb = 0.299, 0.587, 0.114
	return ColorMatrix{M: [9]float32{
		float32(lr*(1-s)) + s, lg * (1 - s), lb * (1 - s),
		lr * (1 - s), float32(lg*(1-s)) + s, lb * (1 - s),
		lr * (1 - s), lg * (1 - s), float32(lb*(1-s)) + s,
	}}
}

// Gamma applies an encoding curve. If SRGB is true it uses the piecewise
// sRGB transfer function; otherwise a pure power law with exponent 1/G.
type Gamma struct {
	SRGB bool
	G    float64
}

// Name implements Stage.
func (s Gamma) Name() string { return "gamma" }

// Apply implements Stage.
func (s Gamma) Apply(im *imaging.Image) *imaging.Image {
	out := im.Clone()
	for i, v := range out.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		if s.SRGB {
			out.Pix[i] = srgbEncode(v)
		} else {
			out.Pix[i] = float32(math.Pow(float64(v), 1/s.G))
		}
	}
	return out
}

func srgbEncode(v float32) float32 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return float32(float64(1.055*math.Pow(float64(v), 1/2.4)) - 0.055)
}

// ToneCurve applies a smooth S-curve of the given strength around mid-gray,
// modelling vendor "pop" tone mapping. Strength 0 is identity.
type ToneCurve struct{ Strength float64 }

// Name implements Stage.
func (s ToneCurve) Name() string { return "tone_curve" }

// Apply implements Stage.
func (s ToneCurve) Apply(im *imaging.Image) *imaging.Image {
	out := im.Clone()
	if s.Strength == 0 {
		return out
	}
	for i, v := range out.Pix {
		out.Pix[i] = toneCurve(v, s.Strength)
	}
	return out
}

// toneCurve blends the clamped sample x with the smoothstep x²(3-2x) at
// strength k, every product rounded before it is added to or subtracted from.
func toneCurve(v float32, k float64) float32 {
	x := float64(fmath.Clamp01(v))
	smooth := float64(x * x * (3 - float64(2*x)))
	return float32(x + float64(k*(smooth-x)))
}

// Denoise selects a spatial denoiser.
type Denoise struct {
	Median bool // 3×3 median when true, else box blur of Radius
	Radius int
}

// Name implements Stage.
func (s Denoise) Name() string { return "denoise" }

// Apply implements Stage.
func (s Denoise) Apply(im *imaging.Image) *imaging.Image {
	if s.Median {
		return imaging.MedianDenoise3(im)
	}
	return imaging.BoxBlur(im, s.Radius)
}

// Sharpen applies unsharp masking.
type Sharpen struct {
	Sigma  float64
	Amount float32
}

// Name implements Stage.
func (s Sharpen) Name() string { return "sharpen" }

// Apply implements Stage.
func (s Sharpen) Apply(im *imaging.Image) *imaging.Image {
	return imaging.UnsharpMask(im, s.Sigma, s.Amount)
}

// ClampStage clips samples to [0,1]; vendors place it at pipeline end.
type ClampStage struct{}

// Name implements Stage.
func (ClampStage) Name() string { return "clamp" }

// Apply implements Stage.
func (ClampStage) Apply(im *imaging.Image) *imaging.Image { return im.Clone().Clamp() }
