package isp

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/sensor"
)

// Fused is a compiled Pipeline for high-throughput fleet simulation. The
// interpreted Pipeline allocates a fresh image per stage and evaluates
// transcendental curves (gamma, tone) per pixel; Fuse collapses every run of
// pointwise stages into at most one channel-mixing matrix pass and one
// scalar-curve pass backed by a lookup table, executed in place. Stages that
// cannot be precompiled — auto white balance (data-dependent gains) and the
// spatial denoise/sharpen filters — run unchanged, so a fused pipeline stays
// within LUT interpolation error (<1e-3) of its source pipeline while doing
// a small fraction of the work.
type Fused struct {
	Name     string
	Demosaic DemosaicAlgorithm
	ops      []fusedOp
}

// fusedOp is one executable step; exactly one field is active (awbNext
// optionally rides along with awb).
type fusedOp struct {
	stage   Stage // run as-is (unknown stages)
	sharpen *Sharpen
	denoise *Denoise
	awb     *WhiteBalance
	// awbNext is a constant matrix immediately following the auto white
	// balance; the runtime folds it into the data-dependent gain matrix so
	// both apply in a single pass.
	awbNext *[9]float32
	matrix  *[9]float32 // one in-place channel-mixing pass
	lut     []float32   // one in-place scalar-curve pass
	clamp   bool        // the curve is a plain clamp01; skip the table
}

// The LUT is indexed by u = sqrt(v) so that the steep dark region of
// power-law curves gets quadratically more entries; a 2k-entry table keeps
// interpolation error below 1e-3 even for gamma 1/2.4 at black. The u-domain
// upper bound of 2 covers values up to 4, far beyond anything the mid-
// pipeline can produce (white balance and saturation overshoot [0,1] by a
// few tens of percent at most).
const (
	lutSize = 2048
	lutMaxU = 2.0
)

// curveFn is a scalar per-sample transfer function.
type curveFn func(float32) float32

// Fuse compiles a pipeline. The source pipeline is not retained.
func Fuse(p *Pipeline) *Fused {
	f := &Fused{Name: p.Name, Demosaic: p.Demosaic}
	var curves []curveFn // pending run of scalar curves
	var matrix *[9]float32

	flushMatrix := func() {
		if matrix != nil {
			f.ops = append(f.ops, fusedOp{matrix: matrix})
			matrix = nil
		}
	}
	flushCurves := func() {
		if len(curves) > 0 {
			f.ops = append(f.ops, bakeCurves(curves))
			curves = nil
		}
	}
	flushAll := func() { flushMatrix(); flushCurves() }
	pushCurve := func(fn curveFn) {
		flushMatrix() // preserve stage order: matrices before this curve run first
		curves = append(curves, fn)
	}
	pushMatrix := func(m [9]float32) {
		flushCurves()
		if matrix == nil {
			matrix = &m
		} else {
			composed := matmul3(m, *matrix)
			matrix = &composed
		}
	}

	for _, s := range p.Stages {
		switch s := s.(type) {
		case BlackLevel:
			if s.Level <= 0 || s.Level >= 1 {
				continue
			}
			level, inv := s.Level, 1/(1-s.Level)
			pushCurve(func(v float32) float32 {
				v -= level
				if v < 0 {
					v = 0
				}
				return v * inv
			})
		case WhiteBalance:
			if s.Auto {
				flushAll()
				f.ops = append(f.ops, fusedOp{awb: &s})
				continue
			}
			pushMatrix([9]float32{s.GainR, 0, 0, 0, s.GainG, 0, 0, 0, s.GainB})
		case ColorMatrix:
			pushMatrix(s.M)
		case Gamma:
			if s.SRGB {
				pushCurve(func(v float32) float32 { return srgbEncode(fmath.Clamp01(v)) })
			} else {
				invG := 1 / s.G
				pushCurve(func(v float32) float32 {
					return float32(math.Pow(float64(fmath.Clamp01(v)), invG))
				})
			}
		case ToneCurve:
			if s.Strength == 0 {
				continue
			}
			k := s.Strength
			pushCurve(func(v float32) float32 { return toneCurve(v, k) })
		case ClampStage:
			pushCurve(func(v float32) float32 { return fmath.Clamp01(v) })
		case Sharpen:
			flushAll()
			f.ops = append(f.ops, fusedOp{sharpen: &s})
		case Denoise:
			flushAll()
			f.ops = append(f.ops, fusedOp{denoise: &s})
		default:
			flushAll()
			f.ops = append(f.ops, fusedOp{stage: s})
		}
	}
	flushAll()

	// A trailing (or lone) curve run that is exactly clamp01 is common —
	// vendors end every pipeline with a clamp. Detect it so execution can
	// skip the table lookup.
	for i := range f.ops {
		if f.ops[i].lut != nil && lutIsClamp(f.ops[i].lut) {
			f.ops[i].clamp = true
		}
	}

	// Fold a constant matrix that directly follows an auto white balance
	// into it: the runtime composes the data-dependent gain diagonal with
	// the constant and applies both in one pass.
	folded := f.ops[:0]
	for i := 0; i < len(f.ops); i++ {
		op := f.ops[i]
		if op.awb != nil && i+1 < len(f.ops) && f.ops[i+1].matrix != nil {
			op.awbNext = f.ops[i+1].matrix
			i++
		}
		folded = append(folded, op)
	}
	f.ops = folded
	return f
}

// bakeCurves samples the composition of a curve run into one LUT op.
func bakeCurves(curves []curveFn) fusedOp {
	lut := make([]float32, lutSize)
	step := lutMaxU / float64(lutSize-1)
	for j := range lut {
		u := float64(j) * step
		v := float32(u * u)
		for _, fn := range curves {
			v = fn(v)
		}
		lut[j] = v
	}
	return fusedOp{lut: lut}
}

// lutIsClamp reports whether a baked LUT is the identity-with-clamp curve.
func lutIsClamp(lut []float32) bool {
	step := lutMaxU / float64(lutSize-1)
	for j, got := range lut {
		u := float64(j) * step
		if got != fmath.Clamp01(float32(u*u)) {
			return false
		}
	}
	return true
}

// matmul3 returns a·b for row-major 3×3 matrices (b applied first).
func matmul3(a, b [9]float32) [9]float32 {
	var out [9]float32
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			out[r*3+c] = float32(a[r*3]*b[c]) + float32(a[r*3+1]*b[3+c]) + float32(a[r*3+2]*b[6+c])
		}
	}
	return out
}

// Process runs the fused pipeline on a raw Bayer frame.
func (f *Fused) Process(raw *sensor.RawImage) *imaging.Image {
	return f.run(Demosaic(raw, f.Demosaic))
}

// ProcessRGB runs only the (fused) RGB stages; the input is not mutated.
func (f *Fused) ProcessRGB(im *imaging.Image) *imaging.Image {
	return f.run(im.Clone())
}

// run executes the op list, mutating im in place where possible. im must be
// owned by the caller (freshly allocated).
func (f *Fused) run(im *imaging.Image) *imaging.Image {
	for _, op := range f.ops {
		switch {
		case op.stage != nil:
			im = op.stage.Apply(im)
		case op.sharpen != nil:
			// Unsharp masking with the result written back in place: the
			// same arithmetic as imaging.UnsharpMask without the output
			// allocation. The blur lives in a pooled image for the pass.
			blur := imaging.GaussianBlurInto(imaging.GetImage(im.W, im.H), im, op.sharpen.Sigma)
			unsharp(im.Pix, blur.Pix, op.sharpen.Amount)
			imaging.PutImage(blur)
		case op.denoise != nil:
			// The spatial denoisers cannot write in place (each output
			// sample reads a neighbourhood of inputs), so they ping-pong
			// through a pooled image instead of allocating one per frame.
			// A box radius ≤ 0 is a plain copy in the interpreted stage;
			// since run owns im, skipping it yields the same pixels.
			if op.denoise.Median {
				tmp := imaging.MedianDenoise3Into(imaging.GetImage(im.W, im.H), im)
				imaging.PutImage(im)
				im = tmp
			} else if op.denoise.Radius > 0 {
				tmp := imaging.BoxBlurInto(imaging.GetImage(im.W, im.H), im, op.denoise.Radius)
				imaging.PutImage(im)
				im = tmp
			}
		case op.awb != nil:
			applyAutoWB(im, op.awb, op.awbNext)
		case op.matrix != nil:
			applyMatrix(im, op.matrix)
		case op.clamp:
			im.Clamp()
		default:
			applyLUT(im.Pix, op.lut)
		}
	}
	return im
}

// applyAutoWB estimates gray-world gains exactly as WhiteBalance.Apply
// does, then applies them in place in a single pass — composed with the
// following constant matrix when the compiler folded one in.
func applyAutoWB(im *imaging.Image, s *WhiteBalance, next *[9]float32) {
	gr, gg, gb := float32(1), float32(1), float32(1)
	mr, mg, mb := im.Mean()
	if mr > 1e-6 && mg > 1e-6 && mb > 1e-6 {
		strength := s.Strength
		if strength == 0 {
			strength = 1
		}
		gr = 1 + float32((float32(mg/mr)-1)*strength)
		gb = 1 + float32((float32(mg/mb)-1)*strength)
	}
	gains := [9]float32{gr, 0, 0, 0, gg, 0, 0, 0, gb}
	if next != nil {
		gains = matmul3(*next, gains)
	}
	applyMatrix(im, &gains)
}

// unsharp adds amount times the difference from the blurred frame to every
// sample, in place.
func unsharp(pix, blur []float32, amount float32) {
	for i := unsharpVector(pix, blur, amount); i < len(pix); i++ {
		v := pix[i]
		pix[i] = v + float32(amount*(v-blur[i]))
	}
}

// applyMatrix mixes channels in place.
func applyMatrix(im *imaging.Image, m *[9]float32) {
	n := im.W * im.H
	for i := applyMatrixVector(im.Pix, n, m); i < n; i++ {
		r, g, b := im.Pix[i], im.Pix[n+i], im.Pix[2*n+i]
		im.Pix[i] = float32(m[0]*r) + float32(m[1]*g) + float32(m[2]*b)
		im.Pix[n+i] = float32(m[3]*r) + float32(m[4]*g) + float32(m[5]*b)
		im.Pix[2*n+i] = float32(m[6]*r) + float32(m[7]*g) + float32(m[8]*b)
	}
}

// applyLUT evaluates the sqrt-indexed curve table in place with linear
// interpolation. Negative inputs clamp to 0 and inputs beyond the domain to
// the last entry, matching how every compiled curve treats out-of-range
// values.
func applyLUT(pix []float32, lut []float32) {
	const scale = float32(lutSize-1) / lutMaxU
	pix = pix[applyLUTVector(pix, lut, scale):]
	for i, v := range pix {
		if v < 0 {
			v = 0
		}
		u := float32(float32(math.Sqrt(float64(v))) * scale)
		j := int(u)
		if j >= lutSize-1 {
			pix[i] = lut[lutSize-1]
			continue
		}
		frac := u - float32(j)
		pix[i] = lut[j] + float32((lut[j+1]-lut[j])*frac)
	}
}
