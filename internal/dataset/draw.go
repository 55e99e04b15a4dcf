// Package dataset procedurally renders the labeled scenes that stand in for
// the paper's data collection: the five ImageNet classes (water bottle, beer
// bottle, wine bottle, purse, backpack) photographed from five angles, plus
// the screen-display simulation of the lab rig and the training images of
// the base model. Every render is deterministic in its seed,
// so "the same image on the monitor" is exactly reproducible across phones.
// Every product that is added to or subtracted from is rounded first,
// float64(x*y) + z: a compiler that may fuse the two (arm64's) would
// otherwise draw a different scene from the same seed (scripts/lint_fma.sh).
package dataset

import (
	"math"

	"repro/internal/imaging"
)

// color is a convenience RGB triple.
type color struct{ r, g, b float32 }

func (c color) scale(f float32) color { return color{c.r * f, c.g * f, c.b * f} }

// canvas wraps an image with simple rasterization helpers. Coordinates are
// normalized to [0,1] so renders are resolution-independent.
type canvas struct {
	im *imaging.Image
}

func newCanvas(size int) *canvas { return &canvas{im: imaging.New(size, size)} }

func (cv *canvas) set(x, y int, c color) {
	if x < 0 || y < 0 || x >= cv.im.W || y >= cv.im.H {
		return
	}
	cv.im.Set(x, y, c.r, c.g, c.b)
}

// fillRect fills the axis-aligned rectangle with corners (x0,y0)-(x1,y1) in
// normalized coordinates.
func (cv *canvas) fillRect(x0, y0, x1, y1 float64, c color) {
	w, h := cv.im.W, cv.im.H
	ix0, iy0 := int(x0*float64(w)), int(y0*float64(h))
	ix1, iy1 := int(x1*float64(w)), int(y1*float64(h))
	for y := iy0; y < iy1; y++ {
		for x := ix0; x < ix1; x++ {
			cv.set(x, y, c)
		}
	}
}

// fillEllipse fills an ellipse centered at (cx,cy) with radii (rx,ry).
func (cv *canvas) fillEllipse(cx, cy, rx, ry float64, c color) {
	w, h := float64(cv.im.W), float64(cv.im.H)
	x0, x1 := int((cx-rx)*w), int((cx+rx)*w)+1
	y0, y1 := int((cy-ry)*h), int((cy+ry)*h)+1
	for y := y0; y < y1; y++ {
		fy := (float64(y)+0.5)/h - cy
		for x := x0; x < x1; x++ {
			fx := (float64(x)+0.5)/w - cx
			if fx*fx/(rx*rx)+fy*fy/(ry*ry) <= 1 {
				cv.set(x, y, c)
			}
		}
	}
}

// fillTrapezoid fills a vertical trapezoid: top edge from (cx-topW/2) to
// (cx+topW/2) at y0, bottom edge with width botW at y1.
func (cv *canvas) fillTrapezoid(cx, y0, y1, topW, botW float64, c color) {
	h := float64(cv.im.H)
	w := float64(cv.im.W)
	iy0, iy1 := int(y0*h), int(y1*h)
	if iy1 <= iy0 {
		return
	}
	for y := iy0; y < iy1; y++ {
		t := (float64(y) + 0.5 - float64(y0*h)) / (float64(y1*h) - float64(y0*h))
		half := float64((topW + float64((botW-topW)*t)) / 2)
		x0, x1 := int((cx-half)*w), int((cx+half)*w)
		for x := x0; x < x1; x++ {
			cv.set(x, y, c)
		}
	}
}

// strokeArc draws a circular arc (angles in radians, counterclockwise from
// +x axis) with the given stroke thickness, all in normalized coordinates.
func (cv *canvas) strokeArc(cx, cy, radius, a0, a1, thickness float64, c color) {
	w, h := float64(cv.im.W), float64(cv.im.H)
	steps := int(radius * w * (a1 - a0) * 4)
	if steps < 8 {
		steps = 8
	}
	halfT := float64(thickness / 2)
	for i := 0; i <= steps; i++ {
		a := a0 + float64((a1-a0)*float64(i)/float64(steps))
		px := cx + float64(radius*math.Cos(a))
		py := cy - float64(radius*math.Sin(a))
		// stamp a small disc
		r0 := int((py - halfT) * h)
		r1 := int((py+halfT)*h) + 1
		c0 := int((px - halfT) * w)
		c1 := int((px+halfT)*w) + 1
		for y := r0; y < r1; y++ {
			fy := (float64(y)+0.5)/h - py
			for x := c0; x < c1; x++ {
				fx := (float64(x)+0.5)/w - px
				if float64(fx*fx)+float64(fy*fy) <= halfT*halfT {
					cv.set(x, y, c)
				}
			}
		}
	}
}

// vGradient fills the whole canvas with a vertical gradient.
func (cv *canvas) vGradient(top, bottom color) {
	for y := 0; y < cv.im.H; y++ {
		t := float32(y) / float32(cv.im.H-1)
		c := color{
			top.r + float32((bottom.r-top.r)*t),
			top.g + float32((bottom.g-top.g)*t),
			top.b + float32((bottom.b-top.b)*t),
		}
		for x := 0; x < cv.im.W; x++ {
			cv.set(x, y, c)
		}
	}
}

// checker fills the canvas with a two-color checkerboard of the given cell
// size in pixels.
func (cv *canvas) checker(a, b color, cell int) {
	if cell < 1 {
		cell = 1
	}
	for y := 0; y < cv.im.H; y++ {
		for x := 0; x < cv.im.W; x++ {
			if ((x/cell)+(y/cell))%2 == 0 {
				cv.set(x, y, a)
			} else {
				cv.set(x, y, b)
			}
		}
	}
}

// shadeVertical multiplies pixel brightness by a left-to-right lighting ramp
// to fake directional illumination on the object region.
func (cv *canvas) shadeVertical(x0, x1 float64, lo, hi float32) {
	w := float64(cv.im.W)
	ix0, ix1 := int(x0*w), int(x1*w)
	if ix0 < 0 {
		ix0 = 0
	}
	if ix1 > cv.im.W {
		ix1 = cv.im.W
	}
	if ix1 <= ix0 {
		return
	}
	n := cv.im.W * cv.im.H
	for x := ix0; x < ix1; x++ {
		t := float32(x-ix0) / float32(ix1-ix0)
		f := lo + float32((hi-lo)*t)
		for y := 0; y < cv.im.H; y++ {
			i := y*cv.im.W + x
			cv.im.Pix[i] *= f
			cv.im.Pix[n+i] *= f
			cv.im.Pix[2*n+i] *= f
		}
	}
}
