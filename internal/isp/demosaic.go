// Package isp implements the image-signal-processor substrate: demosaicing,
// black level, white balance, color-correction matrices, gamma curves,
// denoising, sharpening and tone mapping, composed into per-vendor
// pipelines. The paper treats phone ISPs as opaque, divergent black boxes;
// here each vendor is an explicit parameterization of the same stage set, so
// the divergence is reproducible and controllable.
//
// A Pipeline is a demosaic algorithm and a list of stages, run in place by
// one executor; each stage's arithmetic is written once (stages.go). Fuse
// compiles a pipeline into a shorter one of the same type for the fleet's hot
// path (fused.go), so what the lab runs and what the fleet runs differ in
// their stage lists only.
package isp

import (
	"math"
	"sync"

	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/sensor"
)

// DemosaicAlgorithm selects how the Bayer mosaic is interpolated to RGB.
type DemosaicAlgorithm int

// Supported demosaic algorithms.
const (
	// DemosaicBilinear averages the nearest same-color neighbours.
	DemosaicBilinear DemosaicAlgorithm = iota
	// DemosaicEdgeAware interpolates green along the lower-gradient axis
	// before filling chroma, reducing zipper artifacts (a simplified
	// Hamilton–Adams interpolator).
	DemosaicEdgeAware
)

// Demosaic reconstructs a full RGB image from a raw Bayer frame.
//
// Both kernels run every pixel, border or not, through one body on a padded
// copy of the raw plane: the frame with a ring of reflected samples around
// it, each the sample rawAt's reflection about the edge reads. The reflection
// moves a tap by an even distance, so it keeps Bayer parity: a border pixel
// has the same-colour taps, in the same scan order and count, as an interior
// pixel of its parity class, and the Bayer geometry repeating every 2×2
// pixels leaves one precomputed plan per channel and class. What did differ
// is where a sum starts — the reflective border bodies started from +0, the
// interior from its first tap; the two differ only when every tap is -0 — so
// each row carries an init row a sum starts from: +0 for a border pixel, -0,
// which any first tap survives unchanged, inside. The output is bit for bit
// the one of the per-pixel reference kernels kept in demosaic_ref_test.go.
// The padded planes come from a pool; the rows run on the vector kernels
// where the machine has them (vector_amd64.go) and on the Go loops below
// otherwise.
func Demosaic(raw *sensor.RawImage, algo DemosaicAlgorithm) *imaging.Image {
	switch algo {
	case DemosaicEdgeAware:
		return demosaicEdgeAware(raw)
	default:
		return demosaicBilinear(raw)
	}
}

// colorTable is the Bayer color of each (y parity, x parity) cell, which is
// all the plans need of the pattern.
func colorTable(raw *sensor.RawImage) (ctab [2][2]int) {
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			ctab[y][x] = raw.ColorAt(x, y)
		}
	}
	return ctab
}

// lanePlan is how one output channel of one parity class is computed: a copy
// of the centre sample (ntap 0), or the average of its ntap same-colour taps
// at offs (padded-plane index units, scan order), summed from the row's init
// value. ntap is 2 or 4, so scale = 1/ntap is exact and the product is the
// quotient, bit for bit.
type lanePlan struct {
	ntap  int32
	scale float32
	offs  [4]int32
}

// rowPlans holds, for one row parity, each channel's plan for even and odd x.
type rowPlans [3][2]lanePlan

// addTap appends a tap at off to the plan.
func (p *lanePlan) addTap(off int) {
	p.offs[p.ntap] = int32(off)
	p.ntap++
	p.scale = 1 / float32(p.ntap)
}

// bilinearPlans builds the plans of the bilinear kernel for the frame's
// pattern on a padded plane of the given stride: the native colour is
// copied, the other two average their same-colour taps in the 3×3 window.
func bilinearPlans(ctab [2][2]int, stride int) (plans [2]rowPlans) {
	for yp := 0; yp < 2; yp++ {
		for xp := 0; xp < 2; xp++ {
			native := ctab[yp][xp]
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if c := ctab[(yp+dy)&1][(xp+dx)&1]; c != native {
						plans[yp][c][xp].addTap(dy*stride + dx)
					}
				}
			}
		}
	}
	return plans
}

// rbPlans builds the pass-2 plans of the edge-aware kernel: red and blue are
// copied where native and otherwise interpolated from the colour differences
// of their taps in the 3×3 window. The centre's colour is the class's own,
// never the target, so it is never a tap. Green's entries stay unused.
func rbPlans(ctab [2][2]int, stride int) (plans [2]rowPlans) {
	for yp := 0; yp < 2; yp++ {
		for xp := 0; xp < 2; xp++ {
			own := ctab[yp][xp]
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if c := ctab[(yp+dy)&1][(xp+dx)&1]; c != 1 && c != own {
						plans[yp][c][xp].addTap(dy*stride + dx)
					}
				}
			}
		}
	}
	return plans
}

// demosaicScratch is one call's padded planes and init rows, pooled: every
// element a kernel reads is rewritten first, so a dirty buffer leaks nothing.
type demosaicScratch struct{ buf []float32 }

var demosaicPool = sync.Pool{New: func() any { return new(demosaicScratch) }}

// demosaicSlack is how far past a row's last output the vector kernels load:
// whole vectors of 8.
const demosaicSlack = 8

// paddedFrame is the padded view of a w×h frame: planes of stride w+2·pad
// and h+2·pad rows, each followed by demosaicSlack samples.
type paddedFrame struct {
	w, h, pad, stride int
	// border is the init row of a border row (all +0); inside that of every
	// other row (+0 at x = 0 and x = w-1, -0 between).
	border, inside []float32
	raw, green     []float32
}

// newPaddedFrame cuts the frame's planes from a pooled scratch and fills the
// init rows and the padded raw plane; green is cut only when wanted.
func newPaddedFrame(sc *demosaicScratch, raw *sensor.RawImage, pad int, green bool) paddedFrame {
	w, h := raw.W, raw.H
	f := paddedFrame{w: w, h: h, pad: pad, stride: w + 2*pad}
	initN := (w + demosaicSlack - 1) &^ (demosaicSlack - 1)
	planeN := f.stride*(h+2*pad) + demosaicSlack
	need := 2*initN + planeN
	if green {
		need += planeN
	}
	if cap(sc.buf) < need {
		sc.buf = make([]float32, need)
	}
	buf := sc.buf[:need]
	f.border, f.inside, f.raw = buf[:initN], buf[initN:2*initN], buf[2*initN:2*initN+planeN]
	if green {
		f.green = buf[2*initN+planeN:]
	}
	negZero := math.Float32frombits(1 << 31)
	clear(f.border)
	for x := range f.inside {
		f.inside[x] = negZero
	}
	if w > 0 {
		f.inside[0], f.inside[w-1] = 0, 0
	}
	f.fill(f.raw, raw.Plane)
	return f
}

// centre is the padded-plane index of pixel (0, y).
func (f *paddedFrame) centre(y int) int { return (y+f.pad)*f.stride + f.pad }

// init is row y's init row.
func (f *paddedFrame) init(y int) []float32 {
	if y == 0 || y == f.h-1 {
		return f.border
	}
	return f.inside
}

// fill copies the w×h plane src into the middle of the padded plane dst and
// the reflected samples into its ring. The ring sample at (x, y) is the one
// rawAt reads there — src[ry·w+rx] with each coordinate reflected once about
// the edge — or 0 where that index leaves the plane, which a reference kernel
// reading it would have panicked on. The slack is zeroed.
func (f *paddedFrame) fill(dst, src []float32) {
	w, h, p, s := f.w, f.h, f.pad, f.stride
	at := func(i int) float32 {
		if i < 0 || i >= len(src) {
			return 0
		}
		return src[i]
	}
	for py := 0; py < h+2*p; py++ {
		y := reflect(py-p, h)
		row := dst[py*s : (py+1)*s]
		if y >= 0 && y < h {
			copy(row[p:p+w], src[y*w:(y+1)*w])
		} else {
			for x := 0; x < w; x++ {
				row[p+x] = at(y*w + x)
			}
		}
		for k := 1; k <= p; k++ {
			row[p-k] = at(y*w + reflect(-k, w))
			row[p+w-1+k] = at(y*w + reflect(w-1+k, w))
		}
	}
	clear(dst[s*(h+2*p):])
}

// reflect mirrors a coordinate about the edges of [0, size) once, as rawAt
// does: -v below, 2·size-2-v at and past the end.
func reflect(v, size int) int {
	if v < 0 {
		v = -v
	}
	if v >= size {
		v = 2*size - 2 - v
	}
	return v
}

// demosaicBilinear averages same-color neighbours in a 3×3 window. The
// output comes from the image pool; every sample of every channel is
// written.
func demosaicBilinear(raw *sensor.RawImage) *imaging.Image {
	w, h := raw.W, raw.H
	n := w * h
	im := imaging.GetImage(w, h)
	sc := demosaicPool.Get().(*demosaicScratch)
	f := newPaddedFrame(sc, raw, 1, false)
	plans := bilinearPlans(colorTable(raw), f.stride)
	for y := 0; y < h; y++ {
		for c := 0; c < 3; c++ {
			bilinearChan(im.Pix[c*n+y*w:][:w], f.raw, f.centre(y), f.init(y), &plans[y&1][c])
		}
	}
	demosaicPool.Put(sc)
	return im
}

// bilinearChan writes one channel of one output row: dst[x] is pixel x of
// the row whose centre sample is src[base], computed by pl[x&1].
func bilinearChan(dst, src []float32, base int, init []float32, pl *[2]lanePlan) {
	if bilinearChanVector(dst, src, base, init, pl) {
		return
	}
	for x := range dst {
		p, i := &pl[x&1], base+x
		switch p.ntap {
		case 0:
			dst[x] = src[i]
		case 2:
			dst[x] = (init[x] + src[i+int(p.offs[0])] + src[i+int(p.offs[1])]) * p.scale
		default:
			dst[x] = (init[x] + src[i+int(p.offs[0])] + src[i+int(p.offs[1])] +
				src[i+int(p.offs[2])] + src[i+int(p.offs[3])]) * p.scale
		}
	}
}

// demosaicEdgeAware reconstructs green along the axis of least gradient,
// then interpolates red/blue using the green plane as a guide.
func demosaicEdgeAware(raw *sensor.RawImage) *imaging.Image {
	w, h := raw.W, raw.H
	n := w * h
	// Pooled output: pass 1 writes every green sample and pass 2 every red
	// and blue sample, so no pixel reads the dirty buffer.
	im := imaging.GetImage(w, h)
	green := im.Pix[n : 2*n]
	ctab := colorTable(raw)
	sc := demosaicPool.Get().(*demosaicScratch)
	f := newPaddedFrame(sc, raw, 2, true)

	// Pass 1: green. Every Bayer row has one green x-parity, copied; the
	// other interpolates along the lower-gradient axis.
	for y := 0; y < h; y++ {
		gp := 0
		if ctab[y&1][0] != 1 {
			gp = 1
		}
		edgeGreenRow(green[y*w:][:w], f.raw, f.centre(y), f.stride, gp)
	}

	// A lone pixel has no red or blue tap; the reference copies its green
	// into both (it reads outside the plane for a lone red or blue one).
	if n == 1 {
		im.Pix[0], im.Pix[2] = green[0], green[0]
		demosaicPool.Put(sc)
		return im
	}

	// Pass 2: red and blue by colour-difference interpolation, reading the
	// green plane padded like the raw one.
	f.fill(f.green, green)
	plans := rbPlans(ctab, f.stride)
	for y := 0; y < h; y++ {
		for _, c := range [2]int{0, 2} {
			edgeRBChan(im.Pix[c*n+y*w:][:w], f.raw, f.green, f.centre(y), f.init(y), &plans[y&1][c])
		}
	}
	demosaicPool.Put(sc)
	return im
}

// edgeGreenRow writes one row of the green plane: pixel x, whose raw sample
// is src[base+x] on a plane of the given stride, is copied when x&1 is the
// row's green parity gp and interpolated otherwise.
func edgeGreenRow(dst, src []float32, base, stride, gp int) {
	if edgeGreenRowVector(dst, src, base, stride, gp) {
		return
	}
	for x := range dst {
		i := base + x
		if x&1 == gp {
			dst[x] = src[i]
			continue
		}
		left, right, up, down := src[i-1], src[i+1], src[i-stride], src[i+stride]
		gh := fmath.Abs(left-right) + fmath.Abs(float32(2*src[i])-src[i-2]-src[i+2])
		gv := fmath.Abs(up-down) + fmath.Abs(float32(2*src[i])-src[i-2*stride]-src[i+2*stride])
		switch {
		case gh < gv:
			dst[x] = (left + right) / 2
		case gv < gh:
			dst[x] = (up + down) / 2
		default:
			dst[x] = (left + right + up + down) / 4
		}
	}
}

// edgeRBChan writes one red or blue row: pixel x is copied from src[base+x]
// where pl[x&1] says so, and is otherwise its green plus the average of its
// taps' colour differences.
func edgeRBChan(dst, src, green []float32, base int, init []float32, pl *[2]lanePlan) {
	if edgeRBChanVector(dst, src, green, base, init, pl) {
		return
	}
	for x := range dst {
		p, i := &pl[x&1], base+x
		switch p.ntap {
		case 0:
			dst[x] = src[i]
		case 2:
			j0, j1 := i+int(p.offs[0]), i+int(p.offs[1])
			diff := init[x] + (src[j0] - green[j0]) + (src[j1] - green[j1])
			dst[x] = green[i] + float32(diff*p.scale)
		default:
			j0, j1 := i+int(p.offs[0]), i+int(p.offs[1])
			j2, j3 := i+int(p.offs[2]), i+int(p.offs[3])
			diff := init[x] + (src[j0] - green[j0]) + (src[j1] - green[j1]) +
				(src[j2] - green[j2]) + (src[j3] - green[j3])
			dst[x] = green[i] + float32(diff*p.scale)
		}
	}
}
