package imaging

import "math"

// YCbCr holds a planar luma/chroma representation with full-resolution
// planes in [0,1] for Y and [-0.5,0.5] for Cb/Cr (BT.601 primaries, the
// matrix JPEG uses).
type YCbCr struct {
	W, H       int
	Y, Cb, Cr  []float32
	SubsampleX int // chroma subsampling factors actually applied (1 or 2)
	SubsampleY int
}

// RGBToYCbCr converts an RGB image to full-resolution YCbCr planes.
func RGBToYCbCr(im *Image) *YCbCr {
	n := im.W * im.H
	out := &YCbCr{W: im.W, H: im.H, Y: make([]float32, n), Cb: make([]float32, n), Cr: make([]float32, n), SubsampleX: 1, SubsampleY: 1}
	RGBToYCbCrInto(im, out.Y, out.Cb, out.Cr)
	return out
}

// The BT.601 weights, as float32 constants so that the Go loops and the
// tables the vector kernels broadcast from hold the same bits. Each is the
// magnitude its expression multiplies by; cbR alone carries its sign, since
// its product opens the Cb expression.
const (
	yR, yG, yB float32 = 0.299, 0.587, 0.114
	cbR, cbG   float32 = -0.168736, 0.331264
	crG, crB   float32 = 0.418688, 0.081312
	rCr, bCb   float32 = 1.402, 1.772
	gCb, gCr   float32 = 0.344136, 0.714136
	halfChroma float32 = 0.5 // the weight of B in Cb and of R in Cr
)

var (
	yccFromRGB = [8]float32{yR, yG, yB, cbR, cbG, halfChroma, crG, crB}
	rgbFromYCC = [4]float32{rCr, gCb, gCr, bCb}
)

// RGBToYCbCrInto converts an RGB image into caller-provided planes (each of
// length W·H, fully overwritten) — the allocation-free form the codec's
// scratch buffers use.
func RGBToYCbCrInto(im *Image, yp, cbp, crp []float32) {
	n := im.W * im.H
	yp, cbp, crp = yp[:n], cbp[:n], crp[:n]
	r := im.Pix[:n]
	g := im.Pix[n : 2*n]
	b := im.Pix[2*n : 3*n]
	for i := rgbToYCbCrVector(yp, cbp, crp, r, g, b); i < n; i++ {
		yp[i] = float32(yR*r[i]) + float32(yG*g[i]) + float32(yB*b[i])
		cbp[i] = float32(cbR*r[i]) - float32(cbG*g[i]) + float32(halfChroma*b[i])
		crp[i] = float32(halfChroma*r[i]) - float32(crG*g[i]) - float32(crB*b[i])
	}
}

// ToRGB converts YCbCr planes back to an RGB image (not clamped).
func (yc *YCbCr) ToRGB() *Image {
	return yc.ToRGBInto(New(yc.W, yc.H))
}

// ToRGBInto converts YCbCr planes into dst (same dimensions, every sample
// overwritten) and returns it.
func (yc *YCbCr) ToRGBInto(dst *Image) *Image {
	n := yc.W * yc.H
	r := dst.Pix[:n]
	g := dst.Pix[n : 2*n]
	b := dst.Pix[2*n : 3*n]
	for i := 0; i < n; i++ {
		y, cb, cr := yc.Y[i], yc.Cb[i], yc.Cr[i]
		r[i] = y + float32(rCr*cr)
		g[i] = y - float32(gCb*cb) - float32(gCr*cr)
		b[i] = y + float32(bCb*cb)
	}
	return dst
}

// ToRGBQuant8Into converts YCbCr planes into dst with every sample snapped
// to its 8-bit level, in one pass. Bit-identical to
// ToRGBInto(dst).Clamp().Quantize8(): quant8 already clamps, and
// Quantize8(Clamp(v)) == Quantize8(v) for every finite v. The codec decoder
// uses this to drop two full-image passes.
func (yc *YCbCr) ToRGBQuant8Into(dst *Image) *Image {
	n := yc.W * yc.H
	r := dst.Pix[:n]
	g := dst.Pix[n : 2*n]
	b := dst.Pix[2*n : 3*n]
	for i := rgbQuant8Vector(r, g, b, yc.Y[:n], yc.Cb[:n], yc.Cr[:n]); i < n; i++ {
		y, cb, cr := yc.Y[i], yc.Cb[i], yc.Cr[i]
		r[i] = float32(quant8(y+float32(rCr*cr))) / 255
		g[i] = float32(quant8(y-float32(gCb*cb)-float32(gCr*cr))) / 255
		b[i] = float32(quant8(y+float32(bCb*cb))) / 255
	}
	return dst
}

// RGBToHSV converts a single RGB triple (components in [0,1]) to hue
// (degrees in [0,360)), saturation and value.
func RGBToHSV(r, g, b float32) (h, s, v float32) {
	maxc := r
	if g > maxc {
		maxc = g
	}
	if b > maxc {
		maxc = b
	}
	minc := r
	if g < minc {
		minc = g
	}
	if b < minc {
		minc = b
	}
	v = maxc
	d := maxc - minc
	if maxc > 0 {
		s = d / maxc
	}
	if d == 0 {
		return 0, s, v
	}
	switch maxc {
	case r:
		h = float32(60 * float32(math.Mod(float64((g-b)/d), 6)))
	case g:
		h = float32(60 * ((b-r)/d + 2))
	default:
		h = float32(60 * ((r-g)/d + 4))
	}
	if h < 0 {
		h += 360
	}
	return h, s, v
}

// HSVToRGB converts hue (degrees), saturation and value to RGB in [0,1].
func HSVToRGB(h, s, v float32) (r, g, b float32) {
	h = float32(math.Mod(float64(h), 360))
	if h < 0 {
		h += 360
	}
	c := float32(v * s)
	x := float32(c * float32(1-math.Abs(math.Mod(float64(h)/60, 2)-1)))
	m := v - c
	switch {
	case h < 60:
		r, g, b = c, x, 0
	case h < 120:
		r, g, b = x, c, 0
	case h < 180:
		r, g, b = 0, c, x
	case h < 240:
		r, g, b = 0, x, c
	case h < 300:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	return r + m, g + m, b + m
}

// AdjustHue rotates every pixel's hue by degrees.
func AdjustHue(im *Image, degrees float32) *Image {
	out := New(im.W, im.H)
	n := im.W * im.H
	for i := 0; i < n; i++ {
		h, s, v := RGBToHSV(im.Pix[i], im.Pix[n+i], im.Pix[2*n+i])
		r, g, b := HSVToRGB(h+degrees, s, v)
		out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = r, g, b
	}
	return out
}

// AdjustSaturation scales every pixel's saturation by factor (clamped to
// [0,1] saturation after scaling).
func AdjustSaturation(im *Image, factor float32) *Image {
	out := New(im.W, im.H)
	n := im.W * im.H
	for i := 0; i < n; i++ {
		h, s, v := RGBToHSV(im.Pix[i], im.Pix[n+i], im.Pix[2*n+i])
		s *= factor
		if s > 1 {
			s = 1
		}
		r, g, b := HSVToRGB(h, s, v)
		out.Pix[i], out.Pix[n+i], out.Pix[2*n+i] = r, g, b
	}
	return out
}

// AdjustBrightness adds delta to every sample (not clamped; callers Clamp).
func AdjustBrightness(im *Image, delta float32) *Image {
	out := im.Clone()
	for i := range out.Pix {
		out.Pix[i] += delta
	}
	return out
}

// AdjustContrast scales samples around mid-gray: y = (x-0.5)*factor + 0.5.
func AdjustContrast(im *Image, factor float32) *Image {
	out := im.Clone()
	for i, v := range out.Pix {
		out.Pix[i] = float32((v-0.5)*factor) + 0.5
	}
	return out
}
