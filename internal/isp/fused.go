package isp

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/imaging"
)

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

// Fuse compiles a pipeline for high-throughput fleet simulation into another
// pipeline. The stages of the source evaluate transcendental curves (gamma,
// tone) per sample and make one pass a stage; Fuse collapses every run of
// pointwise stages into at most one channel-mixing matrix pass (a composed
// ColorMatrix) and one scalar-curve pass backed by a lookup table (lut).
// Stages that cannot be precompiled — auto white balance (data-dependent
// gains) and the spatial denoise/sharpen filters — are carried over
// unchanged, so a fused pipeline stays within LUT interpolation error (<1e-3)
// of its source pipeline while doing a small fraction of the work. The source
// pipeline is not retained.
func Fuse(p *Pipeline) *Pipeline {
	f := &Pipeline{Name: p.Name, Demosaic: p.Demosaic}
	// At most one of the two is pending: a curve flushes the matrix before it
	// and a matrix the curves before it, which preserves stage order.
	var curves []curveFn
	var matrix *[9]float32

	flush := func() {
		if matrix != nil {
			// A constant matrix that directly follows an auto white balance
			// (the only kind carried over) is folded into it: the stage
			// composes the data-dependent gain diagonal with the constant and
			// applies both in one pass.
			var prev Stage
			if n := len(f.Stages); n > 0 {
				prev = f.Stages[n-1]
			}
			if wb, ok := prev.(WhiteBalance); ok {
				f.Stages[len(f.Stages)-1] = autoWBMatrix{wb: wb, next: *matrix}
			} else {
				f.Stages = append(f.Stages, ColorMatrix{M: *matrix})
			}
			matrix = nil
		}
		if len(curves) > 0 {
			f.Stages = append(f.Stages, bakeCurves(curves))
			curves = nil
		}
	}
	for _, s := range p.Stages {
		if c, ok := s.(curver); ok {
			if fn := c.curve(); fn != nil {
				if matrix != nil {
					flush()
				}
				curves = append(curves, fn)
			}
			continue
		}
		if mx, ok := s.(mixer); ok {
			if m, constant := mx.matrix(); constant {
				if len(curves) > 0 {
					flush()
				}
				if matrix != nil {
					m = matmul3(m, *matrix)
				}
				matrix = &m
				continue
			}
		}
		flush()
		f.Stages = append(f.Stages, s)
	}
	flush()
	return f
}

// lut is a compiled run of curves: one in-place scalar-curve pass.
type lut struct{ table []float32 }

func (lut) Name() string { return "lut" }

func (s lut) run(im *imaging.Image) *imaging.Image {
	applyLUT(im.Pix, s.table)
	return im
}

// autoWBMatrix is an auto white balance and the constant matrix that
// followed it, applied in a single pass.
type autoWBMatrix struct {
	wb   WhiteBalance
	next [9]float32
}

func (autoWBMatrix) Name() string { return "white_balance+color_matrix" }

func (s autoWBMatrix) run(im *imaging.Image) *imaging.Image {
	m := matmul3(s.next, s.wb.gains(im))
	applyMatrix(im, &m)
	return im
}

// bakeCurves compiles a curve run into one stage: a table pass, or the plain
// clamp where the run is exactly clamp01 — common, since vendors end every
// pipeline with one — so that execution skips the table lookup.
func bakeCurves(curves []curveFn) Stage {
	table := bakeTable(curves)
	if lutIsClamp(table) {
		return ClampStage{}
	}
	return lut{table}
}

// bakeTable samples the composition of a curve run into one table.
func bakeTable(curves []curveFn) []float32 {
	table := make([]float32, lutSize)
	step := lutMaxU / float64(lutSize-1)
	for j := range table {
		u := float64(j) * step
		v := float32(u * u)
		for _, fn := range curves {
			v = fn(v)
		}
		table[j] = v
	}
	return table
}

// lutIsClamp reports whether a baked table is the identity-with-clamp curve.
func lutIsClamp(table []float32) bool {
	step := lutMaxU / float64(lutSize-1)
	for j, got := range table {
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
