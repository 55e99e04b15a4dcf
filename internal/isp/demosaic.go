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
// Both kernels run a border-free interior: the Bayer geometry repeats every
// 2×2 pixels, so the same-color tap offsets of every interior pixel are one
// of four precomputed "class plans" (y-parity × x-parity), and the interior
// loops index the raw plane directly — no clampRef/rawAt indirection, no
// per-tap color lookup. Taps accumulate in the same scan order (and the
// divides use the same counts) as the original per-pixel loops, so the
// output is bit-identical to the reference kernels kept in
// demosaic_ref_test.go; borders still run the original reflective path.
func Demosaic(raw *sensor.RawImage, algo DemosaicAlgorithm) *imaging.Image {
	switch algo {
	case DemosaicEdgeAware:
		return demosaicEdgeAware(raw)
	default:
		return demosaicBilinear(raw)
	}
}

func rawAt(raw *sensor.RawImage, x, y int) float32 {
	if x < 0 {
		x = -x
	}
	if x >= raw.W {
		x = 2*raw.W - 2 - x
	}
	if y < 0 {
		y = -y
	}
	if y >= raw.H {
		y = 2*raw.H - 2 - y
	}
	return raw.Plane[y*raw.W+x]
}

// colorTable precomputes the Bayer color of each (x parity, y parity) cell
// so the per-pixel loops avoid a function call per tap.
func colorTable(raw *sensor.RawImage) (ctab [2][2]int) {
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			ctab[y][x] = raw.ColorAt(x, y)
		}
	}
	return ctab
}

func clampRef(v, size int) int {
	if v < 0 {
		v = -v
	}
	if v >= size {
		v = 2*size - 2 - v
	}
	if v < 0 {
		v = 0
	}
	if v >= size {
		v = size - 1
	}
	return v
}

// chanPlan is one non-native channel of a parity class: the 3×3 tap offsets
// (in raw-plane index units, scan order) where that color lives.
type chanPlan struct {
	c    int
	offs [4]int32
	ntap int
	cnt  float32
}

// bilinearClass is the interior plan for one (y-parity, x-parity) cell:
// the native color is copied through, the two other channels average their
// same-color taps.
type bilinearClass struct {
	native int
	ch     [2]chanPlan
}

// bilinearPlans builds the four parity-class plans for the frame's pattern
// and stride.
func bilinearPlans(ctab [2][2]int, w int) (plans [2][2]bilinearClass) {
	for yp := 0; yp < 2; yp++ {
		for xp := 0; xp < 2; xp++ {
			cl := &plans[yp][xp]
			cl.native = ctab[yp][xp]
			nch := 0
			for c := 0; c < 3; c++ {
				if c == cl.native {
					continue
				}
				cl.ch[nch].c = c
				nch++
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					c := ctab[(yp+dy)&1][(xp+dx)&1]
					for k := range cl.ch {
						if cl.ch[k].c == c {
							cl.ch[k].offs[cl.ch[k].ntap] = int32(dy*w + dx)
							cl.ch[k].ntap++
							cl.ch[k].cnt++
						}
					}
				}
			}
		}
	}
	return plans
}

// demosaicBilinear averages same-color neighbours in a 3×3 window. The
// output comes from the image pool: every pixel of every channel is written
// (bilinearBorderPixel writes an explicit 0 where a channel has no taps,
// which on the zeroed images of the pre-pool code was a no-op).
func demosaicBilinear(raw *sensor.RawImage) *imaging.Image {
	im := imaging.GetImage(raw.W, raw.H)
	n := raw.W * raw.H
	w, h := raw.W, raw.H
	ctab := colorTable(raw)
	if w < 3 || h < 3 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				bilinearBorderPixel(raw, im, ctab, n, x, y)
			}
		}
		return im
	}
	plans := bilinearPlans(ctab, w)
	plane := raw.Plane
	pix := im.Pix
	for y := 1; y < h-1; y++ {
		rowPlans := &plans[y&1]
		for x := 1; x < w-1; x++ {
			cl := &rowPlans[x&1]
			i := y*w + x
			for k := 0; k < 2; k++ {
				ch := &cl.ch[k]
				var acc float32
				if ch.ntap == 2 {
					acc = plane[i+int(ch.offs[0])] + plane[i+int(ch.offs[1])]
				} else {
					acc = plane[i+int(ch.offs[0])] + plane[i+int(ch.offs[1])] +
						plane[i+int(ch.offs[2])] + plane[i+int(ch.offs[3])]
				}
				pix[ch.c*n+i] = acc / ch.cnt
			}
			pix[cl.native*n+i] = plane[i]
		}
	}
	// Borders: top and bottom rows, then the left/right columns.
	for x := 0; x < w; x++ {
		bilinearBorderPixel(raw, im, ctab, n, x, 0)
		bilinearBorderPixel(raw, im, ctab, n, x, h-1)
	}
	for y := 1; y < h-1; y++ {
		bilinearBorderPixel(raw, im, ctab, n, 0, y)
		bilinearBorderPixel(raw, im, ctab, n, w-1, y)
	}
	return im
}

// bilinearBorderPixel is the original reflective-border body, unchanged.
func bilinearBorderPixel(raw *sensor.RawImage, im *imaging.Image, ctab [2][2]int, n, x, y int) {
	var acc [3]float32
	var cnt [3]float32
	i := y*raw.W + x
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			c := raw.ColorAt(clampRef(x+dx, raw.W), clampRef(y+dy, raw.H))
			acc[c] += rawAt(raw, x+dx, y+dy)
			cnt[c]++
		}
	}
	for c := 0; c < 3; c++ {
		if cnt[c] > 0 {
			im.Pix[c*n+i] = acc[c] / cnt[c]
		} else {
			// The pre-pool code left the zeroed allocation untouched here;
			// pooled buffers are dirty, so write the 0 explicitly.
			im.Pix[c*n+i] = 0
		}
	}
	// keep the exact sample for the native color
	im.Pix[ctab[y&1][x&1]*n+i] = raw.Plane[i]
}

// rbClass is the pass-2 interior plan of the edge-aware kernel for one
// parity class: for each of red and blue, either the native copy or the
// same-color tap offsets for color-difference interpolation.
type rbClass struct {
	copyRed, copyBlue bool
	red, blue         chanPlan
}

// rbPlans builds the four pass-2 parity-class plans. The original loop
// skipped the center tap explicitly; here it can never appear because the
// center's color is the class's own color, which is never the target color.
func rbPlans(ctab [2][2]int, w int) (plans [2][2]rbClass) {
	for yp := 0; yp < 2; yp++ {
		for xp := 0; xp < 2; xp++ {
			cl := &plans[yp][xp]
			own := ctab[yp][xp]
			cl.copyRed = own == 0
			cl.copyBlue = own == 2
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					c := ctab[(yp+dy)&1][(xp+dx)&1]
					off := int32(dy*w + dx)
					if c == 0 && !cl.copyRed {
						cl.red.offs[cl.red.ntap] = off
						cl.red.ntap++
						cl.red.cnt++
					} else if c == 2 && !cl.copyBlue {
						cl.blue.offs[cl.blue.ntap] = off
						cl.blue.ntap++
						cl.blue.cnt++
					}
				}
			}
		}
	}
	return plans
}

// demosaicEdgeAware reconstructs green along the axis of least gradient,
// then interpolates red/blue using the green plane as a guide.
func demosaicEdgeAware(raw *sensor.RawImage) *imaging.Image {
	w, h := raw.W, raw.H
	n := w * h
	// Pooled output: pass 1 writes every green sample (every Bayer row has a
	// green parity) and pass 2 writes every red and blue sample, so no pixel
	// reads the dirty buffer.
	im := imaging.GetImage(w, h)
	green := im.Pix[n : 2*n]

	ctab := colorTable(raw)
	plane := raw.Plane

	// Pass 1: green plane. Interior pixels (2-pixel margin for the second-
	// difference terms) use direct indexing; the formulas and evaluation
	// order match the border path exactly. Each row splits into its green
	// parity (native copy) and its red-or-blue parity (gradient
	// interpolation), removing the per-pixel color check.
	for y := 0; y < h; y++ {
		gp := -1 // the row's green x-parity
		if ctab[y&1][0] == 1 {
			gp = 0
		} else if ctab[y&1][1] == 1 {
			gp = 1
		}
		rowOff := y * w
		for x := gp; x >= 0 && x < w; x += 2 {
			green[rowOff+x] = plane[rowOff+x]
		}
		ng := 1 - gp // the non-green parity (every Bayer row has exactly one)
		if y < 2 || y >= h-2 {
			for x := ng; x < w; x += 2 {
				edgeGreenGeneric(raw, green, x, y)
			}
			continue
		}
		x := ng
		for ; x < 2; x += 2 {
			edgeGreenGeneric(raw, green, x, y)
		}
		for ; x < w-2; x += 2 {
			i := rowOff + x
			left, right, up, down := plane[i-1], plane[i+1], plane[i-w], plane[i+w]
			gh := fmath.Abs(left-right) + fmath.Abs(float32(2*plane[i])-plane[i-2]-plane[i+2])
			gv := fmath.Abs(up-down) + fmath.Abs(float32(2*plane[i])-plane[i-2*w]-plane[i+2*w])
			switch {
			case gh < gv:
				green[i] = (left + right) / 2
			case gv < gh:
				green[i] = (up + down) / 2
			default:
				green[i] = (left + right + up + down) / 4
			}
		}
		for ; x < w; x += 2 {
			edgeGreenGeneric(raw, green, x, y)
		}
	}

	// Pass 2: red and blue via color-difference interpolation, plan-driven
	// in the interior.
	if w >= 3 && h >= 3 {
		plans := rbPlans(ctab, w)
		pr, pb := im.Pix[:n], im.Pix[2*n:3*n]
		for y := 1; y < h-1; y++ {
			rowPlans := &plans[y&1]
			for x := 1; x < w-1; x++ {
				cl := &rowPlans[x&1]
				i := y*w + x
				if cl.copyRed {
					pr[i] = plane[i]
				} else {
					pr[i] = green[i] + chanDiff(&cl.red, plane, green, i)
				}
				if cl.copyBlue {
					pb[i] = plane[i]
				} else {
					pb[i] = green[i] + chanDiff(&cl.blue, plane, green, i)
				}
			}
		}
		for x := 0; x < w; x++ {
			edgeRBGeneric(raw, im, ctab, green, n, x, 0)
			edgeRBGeneric(raw, im, ctab, green, n, x, h-1)
		}
		for y := 1; y < h-1; y++ {
			edgeRBGeneric(raw, im, ctab, green, n, 0, y)
			edgeRBGeneric(raw, im, ctab, green, n, w-1, y)
		}
	} else {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				edgeRBGeneric(raw, im, ctab, green, n, x, y)
			}
		}
	}
	return im
}

// chanDiff accumulates the plan's color-difference taps in scan order and
// returns diff/cnt — the same left-to-right sum the reference loop builds.
func chanDiff(ch *chanPlan, plane, green []float32, i int) float32 {
	var diff float32
	if ch.ntap == 2 {
		j0, j1 := i+int(ch.offs[0]), i+int(ch.offs[1])
		diff = (plane[j0] - green[j0]) + (plane[j1] - green[j1])
	} else {
		j0, j1 := i+int(ch.offs[0]), i+int(ch.offs[1])
		j2, j3 := i+int(ch.offs[2]), i+int(ch.offs[3])
		diff = (plane[j0] - green[j0]) + (plane[j1] - green[j1]) +
			(plane[j2] - green[j2]) + (plane[j3] - green[j3])
	}
	return diff / ch.cnt
}

// edgeGreenGeneric is the original reflective-border green interpolation for
// one non-green pixel, unchanged.
func edgeGreenGeneric(raw *sensor.RawImage, green []float32, x, y int) {
	w := raw.W
	i := y*w + x
	left, right := rawAt(raw, x-1, y), rawAt(raw, x+1, y)
	up, down := rawAt(raw, x, y-1), rawAt(raw, x, y+1)
	gh := fmath.Abs(left-right) + fmath.Abs(float32(2*rawAt(raw, x, y))-rawAt(raw, x-2, y)-rawAt(raw, x+2, y))
	gv := fmath.Abs(up-down) + fmath.Abs(float32(2*rawAt(raw, x, y))-rawAt(raw, x, y-2)-rawAt(raw, x, y+2))
	switch {
	case gh < gv:
		green[i] = (left + right) / 2
	case gv < gh:
		green[i] = (up + down) / 2
	default:
		green[i] = (left + right + up + down) / 4
	}

}

// edgeRBGeneric is the original reflective-border red/blue interpolation for
// one pixel, unchanged.
func edgeRBGeneric(raw *sensor.RawImage, im *imaging.Image, ctab [2][2]int, green []float32, n, x, y int) {
	w, h := raw.W, raw.H
	i := y*w + x
	own := ctab[y&1][x&1]
	for _, c := range [2]int{0, 2} {
		if own == c {
			im.Pix[c*n+i] = raw.Plane[i]
			continue
		}
		var diff, cnt float32
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				xx, yy := clampRef(x+dx, w), clampRef(y+dy, h)
				if raw.ColorAt(xx, yy) != c {
					continue
				}
				diff += rawAt(raw, x+dx, y+dy) - green[yy*w+xx]
				cnt++
			}
		}
		if cnt > 0 {
			im.Pix[c*n+i] = green[i] + diff/cnt
		} else {
			im.Pix[c*n+i] = green[i]
		}
	}
}
