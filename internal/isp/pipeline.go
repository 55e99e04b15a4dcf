package isp

import (
	"strings"

	"repro/internal/imaging"
	"repro/internal/sensor"
)

// Pipeline is an ordered ISP: demosaic followed by RGB stages.
type Pipeline struct {
	Name     string
	Demosaic DemosaicAlgorithm
	Stages   []Stage
}

// Process runs the full pipeline on a raw Bayer frame. The result is the
// caller's: a pooled image it may hand to imaging.PutImage when done.
func (p *Pipeline) Process(raw *sensor.RawImage) *imaging.Image {
	return p.run(Demosaic(raw, p.Demosaic))
}

// ProcessRGB runs only the RGB stages, for inputs that are already
// demosaiced (e.g. the software-ISP raw-conversion experiment). The input is
// not mutated.
func (p *Pipeline) ProcessRGB(im *imaging.Image) *imaging.Image {
	return p.run(im.Clone())
}

// run executes the stage list on im, which the caller must own: stages
// mutate it in place or trade it for a pooled image.
func (p *Pipeline) run(im *imaging.Image) *imaging.Image {
	for _, s := range p.Stages {
		im = s.run(im)
	}
	return im
}

// Describe returns a compact human-readable stage list.
func (p *Pipeline) Describe() string {
	names := make([]string, 0, len(p.Stages)+1)
	if p.Demosaic == DemosaicEdgeAware {
		names = append(names, "demosaic(edge)")
	} else {
		names = append(names, "demosaic(bilinear)")
	}
	for _, s := range p.Stages {
		names = append(names, s.Name())
	}
	return p.Name + ": " + strings.Join(names, " → ")
}

// The vendor pipelines below give each simulated phone a distinct processing
// personality. The parameter choices are not calibrated to real devices
// (impossible without the hardware); what matters for the reproduction is
// that they differ in the same dimensions real ISPs differ in — demosaic
// quality, white-balance aggressiveness, color rendering, tone curve,
// denoising and sharpening.

// VendorSamsung: edge-aware demosaic, punchy saturation and sharpening.
func VendorSamsung() *Pipeline {
	return &Pipeline{
		Name:     "samsung-isp",
		Demosaic: DemosaicEdgeAware,
		Stages: []Stage{
			BlackLevel{Level: 0.02},
			WhiteBalance{Auto: true, Strength: 0.85},
			SaturationMatrix(1.2),
			ToneCurve{Strength: 0.35},
			Gamma{SRGB: true},
			Sharpen{Sigma: 0.8, Amount: 0.45},
			ClampStage{},
		},
	}
}

// VendorApple: edge-aware demosaic, gentle tone curve, median denoise,
// conservative sharpening.
func VendorApple() *Pipeline {
	return &Pipeline{
		Name:     "apple-isp",
		Demosaic: DemosaicEdgeAware,
		Stages: []Stage{
			BlackLevel{Level: 0.015},
			WhiteBalance{Auto: true, Strength: 0.55},
			Denoise{Median: true},
			SaturationMatrix(0.95),
			ToneCurve{Strength: 0.1},
			Gamma{SRGB: true},
			Sharpen{Sigma: 1.0, Amount: 0.3},
			ClampStage{},
		},
	}
}

// VendorHTC: bilinear demosaic, fixed white balance, power-law gamma.
func VendorHTC() *Pipeline {
	return &Pipeline{
		Name:     "htc-isp",
		Demosaic: DemosaicBilinear,
		Stages: []Stage{
			BlackLevel{Level: 0.03},
			WhiteBalance{GainR: 1.04, GainG: 1, GainB: 0.97},
			SaturationMatrix(1.04),
			Gamma{G: 2.2},
			Sharpen{Sigma: 0.7, Amount: 0.5},
			ClampStage{},
		},
	}
}

// VendorLG: bilinear demosaic, box denoise, strong tone curve.
func VendorLG() *Pipeline {
	return &Pipeline{
		Name:     "lg-isp",
		Demosaic: DemosaicBilinear,
		Stages: []Stage{
			BlackLevel{Level: 0.025},
			WhiteBalance{Auto: true, Strength: 0.9},
			Denoise{Radius: 1},
			SaturationMatrix(1.1),
			ToneCurve{Strength: 0.35},
			Gamma{G: 2.15},
			ClampStage{},
		},
	}
}

// VendorMotorola: bilinear demosaic, muted colors, mild everything.
func VendorMotorola() *Pipeline {
	return &Pipeline{
		Name:     "motorola-isp",
		Demosaic: DemosaicBilinear,
		Stages: []Stage{
			BlackLevel{Level: 0.02},
			WhiteBalance{Auto: true, Strength: 0.7},
			SaturationMatrix(0.98),
			ToneCurve{Strength: 0.15},
			Gamma{G: 2.3},
			Sharpen{Sigma: 0.9, Amount: 0.25},
			ClampStage{},
		},
	}
}

// SoftwareImageMagick models the ImageMagick raw converter the paper uses as
// a software ISP: plain bilinear demosaic, neutral rendering, sRGB gamma,
// no denoise or sharpening.
func SoftwareImageMagick() *Pipeline {
	return &Pipeline{
		Name:     "imagemagick",
		Demosaic: DemosaicBilinear,
		Stages: []Stage{
			BlackLevel{Level: 0.02},
			WhiteBalance{Auto: true, Strength: 1.0},
			Gamma{SRGB: true},
			ClampStage{},
		},
	}
}

// SoftwareDNG models a consistent batch DNG→PNG converter that honours the
// camera-chosen white balance embedded in each file (as ImageMagick's dcraw
// path does by default) instead of re-estimating it: the conversion steps
// are identical for every input, but per-device color casts and exposure
// survive — which is why the paper's §9.2 raw pipeline reduces instability
// only modestly.
func SoftwareDNG() *Pipeline {
	return &Pipeline{
		Name:     "dng-convert",
		Demosaic: DemosaicBilinear,
		Stages: []Stage{
			BlackLevel{Level: 0.02},
			Gamma{SRGB: true},
			ClampStage{},
		},
	}
}

// SoftwareAdobe models the Adobe Photoshop raw converter: edge-aware
// demosaic, default "Adobe Color"-style saturation and contrast, mild
// sharpening — a visibly different rendering from ImageMagick.
func SoftwareAdobe() *Pipeline {
	return &Pipeline{
		Name:     "adobe",
		Demosaic: DemosaicEdgeAware,
		Stages: []Stage{
			BlackLevel{Level: 0.035},
			WhiteBalance{Auto: true, Strength: 0.8},
			SaturationMatrix(1.25),
			ToneCurve{Strength: 0.5},
			Gamma{G: 1.9},
			Sharpen{Sigma: 0.8, Amount: 0.45},
			ClampStage{},
		},
	}
}
