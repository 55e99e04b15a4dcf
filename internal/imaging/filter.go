package imaging

import (
	"math"
	"sync"
)

// blurScratch recycles the intermediate plane buffer and kernel of the
// separable blur; the fleet hot path blurs every capture (lens PSF and
// unsharp masking) and these temporaries otherwise dominate its allocation
// profile.
type blurBuffers struct {
	tmp    []float32
	kernel []float32
}

var blurScratch = sync.Pool{New: func() any { return new(blurBuffers) }}

// GaussianBlur applies a separable Gaussian blur with the given sigma (in
// pixels). Sigma <= 0 returns a copy.
func GaussianBlur(im *Image, sigma float64) *Image {
	return GaussianBlurInto(New(im.W, im.H), im, sigma)
}

// GaussianBlurInto blurs im into dst (same dimensions, every sample
// overwritten) and returns dst — the allocation-free form for pooled
// destinations. dst must not alias im. Sigma <= 0 copies.
func GaussianBlurInto(dst, im *Image, sigma float64) *Image {
	if sigma <= 0 {
		copy(dst.Pix, im.Pix)
		return dst
	}
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	bufs := blurScratch.Get().(*blurBuffers)
	if cap(bufs.kernel) < 2*radius+1 {
		bufs.kernel = make([]float32, 2*radius+1)
	}
	kernel := bufs.kernel[:2*radius+1]
	var sum float64
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		kernel[i+radius] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range kernel {
		kernel[i] *= inv
	}

	defer blurScratch.Put(bufs)
	if gaussianBlurVector(dst, im, kernel, radius, bufs) {
		return dst
	}
	n := im.W * im.H
	w, h := im.W, im.H
	if cap(bufs.tmp) < 3*n {
		bufs.tmp = make([]float32, 3*n)
	}
	tmpPix := bufs.tmp[:3*n]
	out := dst
	// Both passes split a clamp-free interior from the clamped borders: the
	// taps accumulate in the same ascending-k order either way, so the split
	// is invisible in the output. The interior drops the per-tap clamp (and
	// the vertical pass's per-tap row multiply), which is most of the work
	// at fleet capture sizes.
	kn := len(kernel)
	// horizontal pass
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n:]
		dst := tmpPix[p*n:]
		for y := 0; y < h; y++ {
			row := src[y*w : (y+1)*w]
			drow := dst[y*w : (y+1)*w]
			x := 0
			for ; x < radius && x < w; x++ {
				drow[x] = blurTapClamped(row, kernel, x, radius, w)
			}
			// The fleet draws radii 1 to 4: lens PSFs are sigma 0.47–0.92
			// pixels at full resolution (radius 2 or 3) and half that at
			// scale 2 (radius 1 or 2), unsharp sigmas 0.63–1.1 (radius 2 to
			// 4). Unrolling those taps with the kernel in registers keeps
			// the exact left-to-right accumulation order of the loop.
			switch kn {
			case 3:
				k0, k1, k2 := kernel[0], kernel[1], kernel[2]
				for ; x < w-radius; x++ {
					drow[x] = row[x-1]*k0 + row[x]*k1 + row[x+1]*k2
				}
			case 5:
				k0, k1, k2, k3, k4 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4]
				for ; x < w-radius; x++ {
					b := x - 2
					drow[x] = row[b]*k0 + row[b+1]*k1 + row[b+2]*k2 + row[b+3]*k3 + row[b+4]*k4
				}
			case 7:
				k0, k1, k2, k3, k4, k5, k6 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4], kernel[5], kernel[6]
				for ; x < w-radius; x++ {
					b := x - 3
					drow[x] = row[b]*k0 + row[b+1]*k1 + row[b+2]*k2 + row[b+3]*k3 +
						row[b+4]*k4 + row[b+5]*k5 + row[b+6]*k6
				}
			case 9:
				k0, k1, k2, k3, k4, k5, k6, k7, k8 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4], kernel[5], kernel[6], kernel[7], kernel[8]
				for ; x < w-radius; x++ {
					b := x - 4
					drow[x] = row[b]*k0 + row[b+1]*k1 + row[b+2]*k2 + row[b+3]*k3 + row[b+4]*k4 +
						row[b+5]*k5 + row[b+6]*k6 + row[b+7]*k7 + row[b+8]*k8
				}
			default:
				for ; x < w-radius; x++ {
					var s float32
					base := x - radius
					for k := 0; k < kn; k++ {
						s += row[base+k] * kernel[k]
					}
					drow[x] = s
				}
			}
			for ; x < w; x++ {
				drow[x] = blurTapClamped(row, kernel, x, radius, w)
			}
		}
	}
	// vertical pass
	for p := 0; p < 3; p++ {
		src := tmpPix[p*n:]
		dst := out.Pix[p*n:]
		y := 0
		for ; y < radius && y < h; y++ {
			blurRowClamped(dst[y*w:(y+1)*w], src, kernel, y, radius, w, h)
		}
		for ; y < h-radius; y++ {
			drow := dst[y*w : (y+1)*w]
			base := (y - radius) * w
			switch kn {
			case 3:
				k0, k1, k2 := kernel[0], kernel[1], kernel[2]
				r0, r1, r2 := src[base:base+w], src[base+w:base+2*w], src[base+2*w:base+3*w]
				for x := 0; x < w; x++ {
					drow[x] = r0[x]*k0 + r1[x]*k1 + r2[x]*k2
				}
			case 5:
				k0, k1, k2, k3, k4 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4]
				r0, r1, r2, r3, r4 := src[base:base+w], src[base+w:base+2*w], src[base+2*w:base+3*w], src[base+3*w:base+4*w], src[base+4*w:base+5*w]
				for x := 0; x < w; x++ {
					drow[x] = r0[x]*k0 + r1[x]*k1 + r2[x]*k2 + r3[x]*k3 + r4[x]*k4
				}
			case 7:
				k0, k1, k2, k3, k4, k5, k6 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4], kernel[5], kernel[6]
				r0, r1, r2, r3 := src[base:base+w], src[base+w:base+2*w], src[base+2*w:base+3*w], src[base+3*w:base+4*w]
				r4, r5, r6 := src[base+4*w:base+5*w], src[base+5*w:base+6*w], src[base+6*w:base+7*w]
				for x := 0; x < w; x++ {
					drow[x] = r0[x]*k0 + r1[x]*k1 + r2[x]*k2 + r3[x]*k3 +
						r4[x]*k4 + r5[x]*k5 + r6[x]*k6
				}
			case 9:
				k0, k1, k2, k3, k4, k5, k6, k7, k8 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4], kernel[5], kernel[6], kernel[7], kernel[8]
				r0, r1, r2, r3, r4 := src[base:base+w], src[base+w:base+2*w], src[base+2*w:base+3*w], src[base+3*w:base+4*w], src[base+4*w:base+5*w]
				r5, r6, r7, r8 := src[base+5*w:base+6*w], src[base+6*w:base+7*w], src[base+7*w:base+8*w], src[base+8*w:base+9*w]
				for x := 0; x < w; x++ {
					drow[x] = r0[x]*k0 + r1[x]*k1 + r2[x]*k2 + r3[x]*k3 + r4[x]*k4 +
						r5[x]*k5 + r6[x]*k6 + r7[x]*k7 + r8[x]*k8
				}
			default:
				for x := 0; x < w; x++ {
					var s float32
					idx := base + x
					for k := 0; k < kn; k++ {
						s += src[idx] * kernel[k]
						idx += w
					}
					drow[x] = s
				}
			}
		}
		for ; y < h; y++ {
			blurRowClamped(dst[y*w:(y+1)*w], src, kernel, y, radius, w, h)
		}
	}
	return out
}

// blurTapClamped is the original edge-clamped horizontal tap loop for one
// output sample.
func blurTapClamped(row, kernel []float32, x, radius, w int) float32 {
	var s float32
	for k := -radius; k <= radius; k++ {
		xx := clampInt(x+k, 0, w-1)
		s += row[xx] * kernel[k+radius]
	}
	return s
}

// blurRowClamped is the original edge-clamped vertical tap loop for one
// output row.
func blurRowClamped(drow, src, kernel []float32, y, radius, w, h int) {
	for x := 0; x < w; x++ {
		var s float32
		for k := -radius; k <= radius; k++ {
			yy := clampInt(y+k, 0, h-1)
			s += src[yy*w+x] * kernel[k+radius]
		}
		drow[x] = s
	}
}

// BoxBlur applies an r-radius box filter, the cheap denoiser used by some
// ISP profiles.
func BoxBlur(im *Image, r int) *Image {
	return BoxBlurInto(New(im.W, im.H), im, r)
}

// BoxBlurInto box-filters im into dst (same dimensions, every sample
// overwritten) and returns dst. dst must not alias im. r <= 0 copies.
//
// Radius 1 is the only one a vendor pipeline uses, and there every interior
// sample is the nine taps summed in the generic loop's order (rows top to
// bottom, left to right within a row, starting from zero) over 9 — the same
// adds in the same order without the four bounds tests and the tap counter.
// Border samples and other radii take the generic clipped window.
func BoxBlurInto(dst, im *Image, r int) *Image {
	if r <= 0 {
		copy(dst.Pix, im.Pix)
		return dst
	}
	w, h := im.W, im.H
	n := w * h
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n : (p+1)*n]
		out := dst.Pix[p*n : (p+1)*n]
		for y := 0; y < h; y++ {
			drow := out[y*w : (y+1)*w]
			x := 0
			if r == 1 && y >= 1 && y < h-1 && w >= 3 {
				drow[0] = boxTapClipped(src, 0, y, 1, w, h)
				r0, r1, r2 := src[(y-1)*w:y*w], src[y*w:(y+1)*w], src[(y+1)*w:(y+2)*w]
				for x = 1; x < w-1; x++ {
					var s float32 // 0 + v is not v for v = −0; the generic loop starts here too
					s += r0[x-1]
					s += r0[x]
					s += r0[x+1]
					s += r1[x-1]
					s += r1[x]
					s += r1[x+1]
					s += r2[x-1]
					s += r2[x]
					s += r2[x+1]
					drow[x] = s / 9
				}
			}
			for ; x < w; x++ {
				drow[x] = boxTapClipped(src, x, y, r, w, h)
			}
		}
	}
	return dst
}

// boxTapClipped is the generic box window for one output sample: the mean of
// the taps that fall inside the plane.
func boxTapClipped(src []float32, x, y, r, w, h int) float32 {
	var s float32
	cnt := 0
	for dy := -r; dy <= r; dy++ {
		yy := y + dy
		if yy < 0 || yy >= h {
			continue
		}
		for dx := -r; dx <= r; dx++ {
			xx := x + dx
			if xx < 0 || xx >= w {
				continue
			}
			s += src[yy*w+xx]
			cnt++
		}
	}
	return s / float32(cnt)
}

// UnsharpMask sharpens with amount a: out = src + a*(src - blur(src)).
func UnsharpMask(im *Image, sigma float64, amount float32) *Image {
	blur := GaussianBlur(im, sigma)
	out := New(im.W, im.H)
	for i := range im.Pix {
		out.Pix[i] = im.Pix[i] + amount*(im.Pix[i]-blur.Pix[i])
	}
	return out
}

// MedianDenoise3 applies a 3×3 median filter per channel, an edge-preserving
// denoiser used by the higher-end ISP profiles.
func MedianDenoise3(im *Image) *Image {
	return MedianDenoise3Into(New(im.W, im.H), im)
}

// MedianDenoise3Into median-filters im into dst (same dimensions, every
// sample overwritten) and returns dst. dst must not alias im.
//
// A 3×3 window is three 3-tall columns, and each column is shared by three
// horizontally adjacent windows: sort a column once as it slides in, then
// the window's median is med3(max of the column minima, med3 of the column
// medians, min of the column maxima) — 18 min/max a sample, none a branch on
// pixel data. Edge clamping repeats the outermost row or column, so a border
// window is the same expression with a repeated row or column and there is no
// separate border path. Samples are compared through orderKey so that every
// exchange is an integer compare and conditional move.
//
// A median is one of its inputs, so the output is bit-identical to a
// comparison sort's for every window except one holding both −0 and +0 whose
// median is zero: orderKey puts −0 below +0 where the float comparison calls
// them equal, so which zero comes out may differ (TestMedianDenoise3
// SignedZeros pins this order). NaNs sort as their bit patterns do, above
// +Inf or below −Inf by sign. The fleet produces neither: the filter's input
// is a positive white-balance gain times a curve output ≥ +0.
func MedianDenoise3Into(dst, im *Image) *Image {
	w, h := im.W, im.H
	n := w * h
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n : (p+1)*n]
		out := dst.Pix[p*n : (p+1)*n]
		for y := 0; y < h; y++ {
			r1 := src[y*w : (y+1)*w]
			r0, r2 := r1, r1
			if y > 0 {
				r0 = src[(y-1)*w : y*w]
			}
			if y < h-1 {
				r2 = src[(y+1)*w : (y+2)*w]
			}
			drow := out[y*w : (y+1)*w]
			// (lo0,mid0,hi0), (lo1,…), (lo2,…) are the sorted columns x-1, x
			// and x+1; column 0 is its own left neighbour and column w-1 its
			// own right one.
			lo1, mid1, hi1 := sort3(orderKey(r0[0]), orderKey(r1[0]), orderKey(r2[0]))
			lo0, mid0, hi0 := lo1, mid1, hi1
			for x := 1; x <= w; x++ {
				c := min(x, w-1)
				lo2, mid2, hi2 := sort3(orderKey(r0[c]), orderKey(r1[c]), orderKey(r2[c]))
				drow[x-1] = fromOrderKey(med3(max(lo0, lo1, lo2), med3(mid0, mid1, mid2), min(hi0, hi1, hi2)))
				lo0, mid0, hi0, lo1, mid1, hi1 = lo1, mid1, hi1, lo2, mid2, hi2
			}
		}
	}
	return dst
}

// orderKey maps a float32 to an int32 that orders as the float does: the bit
// pattern as it is for a clear sign bit, with the magnitude bits flipped for
// a set one. The map is its own inverse (fromOrderKey).
func orderKey(v float32) int32 {
	b := int32(math.Float32bits(v))
	return b ^ b>>31&0x7fffffff
}

func fromOrderKey(k int32) float32 {
	return math.Float32frombits(uint32(k ^ k>>31&0x7fffffff))
}

// sort3 returns a, b, c in ascending order.
func sort3(a, b, c int32) (lo, mid, hi int32) {
	a, b = min(a, b), max(a, b)
	b, c = min(b, c), max(b, c)
	return min(a, b), max(a, b), c
}

// med3 returns the median of a, b, c.
func med3(a, b, c int32) int32 {
	return max(min(a, b), min(max(a, b), c))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
