package isp

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/imaging"
)

// Stage is one RGB step of a pipeline. run is the stage's one body, and what
// a pipeline executes: it works on an image the caller owns, in place where
// the stage can, and returns the image that now holds the result — the same
// one, or a pooled one taken in exchange for it. Being unexported, it also
// says that every Stage is one of this package's types.
type Stage interface {
	Name() string
	run(*imaging.Image) *imaging.Image
}

// curveFn is a scalar per-sample transfer function.
type curveFn func(float32) float32

// curver is a stage that maps every sample through one curve, whatever the
// image; nil is the identity. Fuse bakes runs of them into one table.
type curver interface{ curve() curveFn }

// mixer is a stage that mixes the channels of every pixel through a 3×3
// matrix; constant reports that the matrix does not depend on the image, so
// Fuse may compose it with its neighbours.
type mixer interface {
	matrix() (m [9]float32, constant bool)
}

// mapCurve runs a curver's body: fn over every sample, in place.
func mapCurve(im *imaging.Image, fn curveFn) *imaging.Image {
	if fn != nil {
		for i, v := range im.Pix {
			im.Pix[i] = fn(v)
		}
	}
	return im
}

// BlackLevel subtracts a pedestal and rescales so the remaining range maps
// to [0,1], as real sensor pipelines do before color processing.
type BlackLevel struct{ Level float32 }

// Name implements Stage.
func (s BlackLevel) Name() string { return "black_level" }

func (s BlackLevel) run(im *imaging.Image) *imaging.Image { return mapCurve(im, s.curve()) }

func (s BlackLevel) curve() curveFn {
	if s.Level <= 0 || s.Level >= 1 {
		return nil
	}
	level, inv := s.Level, 1/(1-s.Level)
	return func(v float32) float32 {
		v -= level
		if v < 0 {
			v = 0
		}
		return v * inv
	}
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

func (s WhiteBalance) run(im *imaging.Image) *imaging.Image {
	m := s.gains(im)
	applyMatrix(im, &m)
	return im
}

func (s WhiteBalance) matrix() ([9]float32, bool) {
	return diagonal(s.GainR, s.GainG, s.GainB), !s.Auto
}

// gains returns the stage's channel gains for im as a diagonal matrix: the
// preset ones, or in mode Auto the gray-world estimate (unit gains for a
// frame with a channel too dark to divide by).
func (s WhiteBalance) gains(im *imaging.Image) [9]float32 {
	if m, constant := s.matrix(); constant {
		return m
	}
	gr, gb := float32(1), float32(1)
	mr, mg, mb := im.Mean()
	if mr > 1e-6 && mg > 1e-6 && mb > 1e-6 {
		strength := s.Strength
		if strength == 0 {
			strength = 1
		}
		gr = 1 + float32((float32(mg/mr)-1)*strength)
		gb = 1 + float32((float32(mg/mb)-1)*strength)
	}
	return diagonal(gr, 1, gb)
}

func diagonal(r, g, b float32) [9]float32 { return [9]float32{r, 0, 0, 0, g, 0, 0, 0, b} }

// ColorMatrix applies a 3×3 color-correction matrix (row-major).
type ColorMatrix struct{ M [9]float32 }

// Name implements Stage.
func (s ColorMatrix) Name() string { return "color_matrix" }

func (s ColorMatrix) run(im *imaging.Image) *imaging.Image {
	applyMatrix(im, &s.M)
	return im
}

func (s ColorMatrix) matrix() ([9]float32, bool) { return s.M, true }

// IdentityMatrix is the no-op color matrix.
func IdentityMatrix() ColorMatrix { return ColorMatrix{M: diagonal(1, 1, 1)} }

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

func (s Gamma) run(im *imaging.Image) *imaging.Image { return mapCurve(im, s.curve()) }

func (s Gamma) curve() curveFn {
	if s.SRGB {
		return func(v float32) float32 { return srgbEncode(fmath.Clamp01(v)) }
	}
	invG := 1 / s.G
	return func(v float32) float32 { return fmath.PowFloat32(float64(fmath.Clamp01(v)), invG) }
}

// srgbEncode is the sRGB transfer function, its power arm pushed through
// fmath.PowBracket: the arm's expression is monotone in the power, so ends
// that agree are its value and math.Pow runs only when they do not.
func srgbEncode(v float32) float32 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	lo, hi := fmath.PowBracket(float64(v), 1/2.4)
	if e := srgbArm(lo); e == srgbArm(hi) {
		return e
	}
	return srgbArm(math.Pow(float64(v), 1/2.4))
}

func srgbArm(p float64) float32 { return float32(float64(1.055*p) - 0.055) }

// ToneCurve applies a smooth S-curve of the given strength around mid-gray,
// modelling vendor "pop" tone mapping. Strength 0 is identity.
type ToneCurve struct{ Strength float64 }

// Name implements Stage.
func (s ToneCurve) Name() string { return "tone_curve" }

func (s ToneCurve) run(im *imaging.Image) *imaging.Image { return mapCurve(im, s.curve()) }

func (s ToneCurve) curve() curveFn {
	if s.Strength == 0 {
		return nil
	}
	return func(v float32) float32 { return toneCurve(v, s.Strength) }
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

// run cannot write in place (each output sample reads a neighbourhood of
// inputs), so it filters into a pooled image and gives im to the pool in
// exchange. A box radius ≤ 0 is the identity.
func (s Denoise) run(im *imaging.Image) *imaging.Image {
	if !s.Median && s.Radius <= 0 {
		return im
	}
	out := imaging.GetImage(im.W, im.H)
	if s.Median {
		imaging.MedianDenoise3Into(out, im)
	} else {
		imaging.BoxBlurInto(out, im, s.Radius)
	}
	imaging.PutImage(im)
	return out
}

// Sharpen applies unsharp masking: out = src + Amount·(src − blur(src)).
type Sharpen struct {
	Sigma  float64
	Amount float32
}

// Name implements Stage.
func (s Sharpen) Name() string { return "sharpen" }

// run keeps the blurred frame in a pooled image for the pass.
func (s Sharpen) run(im *imaging.Image) *imaging.Image {
	blur := imaging.GaussianBlurInto(imaging.GetImage(im.W, im.H), im, s.Sigma)
	unsharp(im.Pix, blur.Pix, s.Amount)
	imaging.PutImage(blur)
	return im
}

// ClampStage clips samples to [0,1]; vendors place it at pipeline end.
type ClampStage struct{}

// Name implements Stage.
func (ClampStage) Name() string { return "clamp" }

func (ClampStage) run(im *imaging.Image) *imaging.Image { return im.Clamp() }

func (ClampStage) curve() curveFn { return fmath.Clamp01 }
