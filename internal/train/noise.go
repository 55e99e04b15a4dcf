package train

import (
	"fmt"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/imaging"
)

// NoiseScheme generates the "noisy companion" x' for a training image x in
// stability training. The four schemes mirror Table 6 of the paper.
type NoiseScheme interface {
	// Name identifies the scheme in reports ("gaussian", "distortion", ...).
	Name() string
	// Companion returns x' for training example i with clean image x.
	// Implementations must not mutate x.
	Companion(i int, x *imaging.Image, rng *rand.Rand) *imaging.Image
}

// GaussianNoise adds uncorrelated per-pixel Gaussian noise, the original
// Zheng et al. scheme: x'_k = x_k + ε, ε ~ N(0, σ²).
type GaussianNoise struct {
	Sigma float64 // standard deviation in [0,1] pixel units
}

// Name implements NoiseScheme.
func (g GaussianNoise) Name() string { return "gaussian" }

// Companion implements NoiseScheme.
func (g GaussianNoise) Companion(_ int, x *imaging.Image, rng *rand.Rand) *imaging.Image {
	out := x.Clone()
	for i := range out.Pix {
		out.Pix[i] += float32(rng.NormFloat64() * g.Sigma)
	}
	return out.Clamp()
}

// Distortion is the paper's simulated phone noise: random hue, contrast,
// brightness and saturation shifts plus a JPEG round-trip at a random
// quality — the axes along which phone ISPs and codecs actually differ.
type Distortion struct {
	HueDeg     float64 // max hue rotation magnitude (degrees)
	Contrast   float64 // max relative contrast change
	Brightness float64 // max brightness shift
	Saturation float64 // max relative saturation change
	JPEGLow    int     // lowest random JPEG quality
	JPEGHigh   int     // highest random JPEG quality
}

// DefaultDistortion returns the distortion ranges used in the experiments.
func DefaultDistortion() Distortion {
	return Distortion{HueDeg: 12, Contrast: 0.25, Brightness: 0.12, Saturation: 0.3, JPEGLow: 50, JPEGHigh: 95}
}

// Name implements NoiseScheme.
func (d Distortion) Name() string { return "distortion" }

// Companion implements NoiseScheme.
func (d Distortion) Companion(_ int, x *imaging.Image, rng *rand.Rand) *imaging.Image {
	out := x
	if d.HueDeg > 0 {
		out = imaging.AdjustHue(out, float32(symmetric(rng)*d.HueDeg))
	}
	if d.Contrast > 0 {
		out = imaging.AdjustContrast(out, float32(1+float64(symmetric(rng)*d.Contrast)))
	}
	if d.Brightness > 0 {
		out = imaging.AdjustBrightness(out, float32(symmetric(rng)*d.Brightness))
	}
	if d.Saturation > 0 {
		out = imaging.AdjustSaturation(out, float32(1+float64(symmetric(rng)*d.Saturation)))
	}
	out = out.Clone().Clamp()
	if d.JPEGHigh > d.JPEGLow {
		q := d.JPEGLow + rng.Intn(d.JPEGHigh-d.JPEGLow+1)
		enc := codec.NewJPEG(q).Encode(out)
		out = enc.Decode(codec.DecodeOptions{})
	}
	return out
}

// symmetric draws uniformly from [-1, 1). The product is rounded before the
// subtraction, and the inlined draw's own product before that, so no target
// fuses them.
func symmetric(rng *rand.Rand) float64 {
	return float64(float64(rng.Float64())*2) - 1
}

// TwoImages supplies the paired capture from a second device: for training
// image i, the companion is Companions[i] (e.g. the iPhone photo of the
// same on-screen image a Samsung photo came from).
type TwoImages struct {
	Companions []*imaging.Image
}

// Name implements NoiseScheme.
func (t TwoImages) Name() string { return "two images" }

// Companion implements NoiseScheme.
func (t TwoImages) Companion(i int, _ *imaging.Image, _ *rand.Rand) *imaging.Image {
	if i < 0 || i >= len(t.Companions) {
		panic(fmt.Sprintf("train: TwoImages companion index %d out of range", i))
	}
	return t.Companions[i]
}

// Subsample models the realistic data-collection budget: only PerClass
// companion photos per class exist from the second device, and each training
// image is paired with a random same-class companion from that small pool.
type Subsample struct {
	PerClass int
	pools    map[int][]*imaging.Image
	labels   []int
}

// NewSubsample builds the per-class pools by taking the first PerClass
// companion images of each class.
func NewSubsample(perClass int, companions []*imaging.Image, labels []int) *Subsample {
	if len(companions) != len(labels) {
		panic("train: NewSubsample length mismatch")
	}
	pools := map[int][]*imaging.Image{}
	for i, im := range companions {
		if len(pools[labels[i]]) < perClass {
			pools[labels[i]] = append(pools[labels[i]], im)
		}
	}
	return &Subsample{PerClass: perClass, pools: pools, labels: labels}
}

// Name implements NoiseScheme.
func (s *Subsample) Name() string { return fmt.Sprintf("subsample-%d", s.PerClass) }

// Companion implements NoiseScheme.
func (s *Subsample) Companion(i int, _ *imaging.Image, rng *rand.Rand) *imaging.Image {
	pool := s.pools[s.labels[i]]
	if len(pool) == 0 {
		panic(fmt.Sprintf("train: Subsample has no companions for class %d", s.labels[i]))
	}
	return pool[rng.Intn(len(pool))]
}
