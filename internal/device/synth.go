package device

import (
	"math/rand"

	"repro/internal/codec"
	"repro/internal/isp"
	"repro/internal/nn"
	"repro/internal/sensor"
)

// Synthesize derives a new phone profile from a base profile by jittering
// every dimension real device populations vary in: sensor optics and noise,
// ISP tuning, codec quality, and the OS decoder's chroma path. The result is
// deterministic in the rng state, so a fleet generator can rebuild any
// device from (base, per-device seed) alone. The base profile is not
// modified.
//
// The jitter magnitudes are chosen to model within-model-line spread
// (manufacturing tolerance, vendor firmware revisions, OS versions): small
// relative perturbations, plus an occasional decoder flip — the paper's §7
// observation that the same app on the same phone model can decode through a
// different chroma path after an OS update.
func Synthesize(base *Profile, name string, rng *rand.Rand) *Profile {
	jfac := func(frac float64) float64 { return jitter(rng, frac) }
	jfac32 := func(frac float64) float32 { return float32(jfac(frac)) }

	sp := base.Sensor.Params
	sp.BlurSigma *= jfac(0.15)
	sp.Vignette *= jfac(0.20)
	sp.ChromaticShift *= jfac(0.20)
	sp.GainR *= jfac(0.02)
	sp.GainG *= jfac(0.02)
	sp.GainB *= jfac(0.02)
	sp.Exposure *= jfac(0.04)
	sp.ShotNoise *= jfac(0.15)
	sp.ReadNoise *= jfac(0.15)

	out := &Profile{
		Name:       name,
		Sensor:     sensor.New(sp),
		ISP:        jitterPipeline(base.ISP, rng),
		Codec:      jitterCodec(base.Codec, rng),
		Decode:     base.Decode,
		RawCapable: base.RawCapable,
		RawNR:      base.RawNR * jfac32(0.20),
		RawGain:    base.RawGain,
	}
	if out.RawGain != 0 {
		out.RawGain *= jfac32(0.05)
	}
	// OS decoder flip: a minority of the fleet runs a firmware whose codec
	// library takes the other chroma upsampling path.
	if rng.Float64() < 0.3 {
		if out.Decode.ChromaUpsample == codec.UpsampleBilinear {
			out.Decode.ChromaUpsample = codec.UpsampleNearest
		} else {
			out.Decode.ChromaUpsample = codec.UpsampleBilinear
		}
	}
	// Runtime assignment: the device class decides which compilation of the
	// model ships. Drawn last so the optical/ISP jitter stream above is
	// unchanged by the runtime axis; the draw is deterministic in the same
	// per-device rng, so any worker can rebuild the assignment from
	// (seed, device id) alone.
	out.Runtime = pickRuntime(rng)
	return out
}

// jitter draws a factor around 1 with ±frac spread. Every product is rounded
// before it is added to or subtracted from, here and in the rest of the
// package: a compiler that may fuse the two (arm64's) would otherwise
// synthesize a different fleet from the same seed (scripts/lint_fma.sh).
func jitter(rng *rand.Rand, frac float64) float64 {
	u := float64(rng.Float64()) // once inlined, the draw is itself a product
	return 1 + float64((float64(u*2)-1)*frac)
}

// pickRuntime draws the device's inference stack: roughly half the fleet on
// the float32 reference, a third on the int8 quantized build, the rest on
// the pruned build — the TinyMLOps-style mix of per-device model variants.
func pickRuntime(rng *rand.Rand) string {
	switch v := rng.Float64(); {
	case v < 0.50:
		return nn.RuntimeFloat32
	case v < 0.83:
		return nn.RuntimeInt8
	default:
		return nn.RuntimePruned
	}
}

// jitterPipeline rebuilds an ISP with perturbed stage parameters. Stage
// types the jitterer does not recognize are carried over unchanged.
func jitterPipeline(p *isp.Pipeline, rng *rand.Rand) *isp.Pipeline {
	jfac := func(frac float64) float64 { return jitter(rng, frac) }
	out := &isp.Pipeline{Name: p.Name, Demosaic: p.Demosaic, Stages: make([]isp.Stage, len(p.Stages))}
	for i, s := range p.Stages {
		switch s := s.(type) {
		case isp.BlackLevel:
			s.Level *= float32(jfac(0.20))
			out.Stages[i] = s
		case isp.WhiteBalance:
			s.GainR *= float32(jfac(0.02))
			s.GainG *= float32(jfac(0.02))
			s.GainB *= float32(jfac(0.02))
			if s.Strength != 0 {
				s.Strength *= float32(jfac(0.10))
			}
			out.Stages[i] = s
		case isp.ColorMatrix:
			// Scale the matrix's deviation from identity: pulls the color
			// rendering toward/away from neutral without re-deriving the
			// saturation parameter it was built from.
			f := float32(jfac(0.08))
			id := isp.IdentityMatrix().M
			for j := range s.M {
				s.M[j] = id[j] + float32((s.M[j]-id[j])*f)
			}
			out.Stages[i] = s
		case isp.Gamma:
			if !s.SRGB {
				s.G *= jfac(0.03)
			}
			out.Stages[i] = s
		case isp.ToneCurve:
			s.Strength *= jfac(0.15)
			out.Stages[i] = s
		case isp.Sharpen:
			s.Sigma *= jfac(0.10)
			s.Amount *= float32(jfac(0.15))
			out.Stages[i] = s
		default:
			out.Stages[i] = s
		}
	}
	return out
}

// jitterCodec returns a codec of the same family at a nearby quality
// setting (vendor camera apps tune quality per model and firmware).
func jitterCodec(c codec.Codec, rng *rand.Rand) codec.Codec {
	dq := rng.Intn(7) - 3
	clampQ := func(q int) int {
		if q < 60 {
			return 60
		}
		if q > 98 {
			return 98
		}
		return q
	}
	switch c := c.(type) {
	case *codec.JPEGLike:
		return codec.NewJPEG(clampQ(c.Quality + dq))
	case *codec.HEIFLike:
		return codec.NewHEIF(clampQ(c.Quality + dq))
	case *codec.WebPLike:
		return codec.NewWebP(clampQ(c.Quality + dq))
	default:
		return c
	}
}
