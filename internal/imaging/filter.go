package imaging

import (
	"math"
	"sync"
)

// blurBuffers is the scratch of one separable blur, recycled through
// blurScratch: the fleet hot path blurs every capture (lens PSF and unsharp
// masking) and these temporaries otherwise dominate its allocation profile.
type blurBuffers struct {
	tmp    []float32
	kernel []float32
}

var blurScratch = sync.Pool{New: func() any { return new(blurBuffers) }}

// blurSlack is how far past a row's last output the vector row kernel loads.
const blurSlack = 8

// GaussianBlur applies a separable Gaussian blur with the given sigma (in
// pixels). Sigma <= 0 returns a copy.
func GaussianBlur(im *Image, sigma float64) *Image {
	return GaussianBlurInto(New(im.W, im.H), im, sigma)
}

// GaussianBlurInto blurs im into dst (same dimensions, every sample
// overwritten) and returns dst — the allocation-free form for pooled
// destinations. dst must not alias im. Sigma <= 0 copies.
//
// Each plane is copied into scratch with every row's end samples repeated
// radius times on either side, so that no horizontal tap is clamped; the
// horizontal pass writes the intermediate plane radius rows into its scratch
// and the first and last of those rows are repeated above and below, so that
// no vertical tap is either. Both passes are then the one row kernel
// (blurRows) with a tap stride of 1 or of a row, every sum adding its taps in
// ascending order as the edge-clamped loop of refGaussianBlur does.
//
// A sum whose window lies inside the frame starts from its first product at
// radii 1 to 4 — every radius the fleet draws — and from +0 otherwise, as does
// any sum at a clamped border; the two differ only when every product is -0.
// The init row carries that to the kernel as the value a sum starts from: +0,
// or -0, which leaves a first product as it is.
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
	defer blurScratch.Put(bufs)
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

	w, h := im.W, im.H
	n := w * h
	pw := w + 2*radius // row stride of the padded plane
	padN, midN := h*pw, (h+2*radius)*w
	// At fleet sizes the scratch fits in 3·W·H floats whatever the radius, so
	// a pooled buffer grows once; only a frame smaller than its kernel needs
	// more.
	if need := max(padN+midN+3*w+blurSlack, 3*n); cap(bufs.tmp) < need {
		bufs.tmp = make([]float32, need)
	}
	scratch := bufs.tmp[:cap(bufs.tmp)]
	padded, mid, inits := scratch[:padN], scratch[padN:padN+midN], scratch[padN+midN:]
	rowInit, fromZero, fromProduct := inits[:w], inits[w:2*w], inits[2*w:3*w]
	negZero := math.Float32frombits(1 << 31)
	clear(rowInit)
	clear(fromZero)
	if radius <= 4 {
		for x := range fromProduct {
			fromProduct[x] = negZero
		}
		for x := radius; x < w-radius; x++ {
			rowInit[x] = negZero
		}
	} else {
		fromProduct = fromZero
	}
	top := min(radius, h)        // rows [0, top) clamp upwards
	bottom := max(top, h-radius) // rows [bottom, h) clamp downwards
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n : (p+1)*n]
		for y := 0; y < h; y++ {
			row, prow := src[y*w:(y+1)*w], padded[y*pw:(y+1)*pw]
			for i := 0; i < radius; i++ {
				prow[i], prow[radius+w+i] = row[0], row[w-1]
			}
			copy(prow[radius:], row)
		}
		blurRows(mid[radius*w:], padded, h, w, w, pw, 1, kernel, rowInit)
		for i := 0; i < radius; i++ {
			copy(mid[i*w:(i+1)*w], mid[radius*w:(radius+1)*w])
			copy(mid[(radius+h+i)*w:(radius+h+i+1)*w], mid[(radius+h-1)*w:(radius+h)*w])
		}
		out := dst.Pix[p*n : (p+1)*n]
		blurRows(out, mid, top, w, w, w, w, kernel, fromZero)
		blurRows(out[top*w:], mid[top*w:], bottom-top, w, w, w, w, kernel, fromProduct)
		blurRows(out[bottom*w:], mid[bottom*w:], h-bottom, w, w, w, w, kernel, fromZero)
	}
	return dst
}

// blurRows is one pass of the separable blur over rows rows of n outputs, no
// tap clamped: dst[y·dstStride+x] = init[x] + Σₖ src[y·srcStride+x+k·tapStride]·kernel[k].
// The Go loop adds one tap at a time across a row, so every output takes its
// taps in ascending k, each product rounded before it is added. The vector
// kernel computes the same sums where there is one; it loads whole vectors,
// so src and init reach up to blurSlack elements past a row's last output,
// inside the scratch they are cut from. dst overlaps neither.
func blurRows(dst, src []float32, rows, n, dstStride, srcStride, tapStride int, kernel, init []float32) {
	if rows <= 0 || blurRowsVector(dst, src, rows, n, dstStride, srcStride, tapStride, kernel, init) {
		return
	}
	for y := 0; y < rows; y++ {
		out := dst[y*dstStride:][:n]
		copy(out, init)
		for k, kv := range kernel {
			for x, v := range src[y*srcStride+k*tapStride:][:n] {
				out[x] += float32(v * kv)
			}
		}
	}
}

// BoxBlurInto applies an r-radius box filter, the cheap denoiser used by some
// ISP profiles: it box-filters im into dst (same dimensions, every sample
// overwritten) and returns dst. dst must not alias im. r <= 0 copies.
//
// Radius 1 is the only one a vendor pipeline uses, and there every interior
// sample is the nine taps summed in the generic loop's order (rows top to
// bottom, left to right within a row, starting from zero) over 9 — the same
// adds in the same order without the four bounds tests and the tap counter,
// on the vector kernel where there is one. Border samples and other radii
// take the generic clipped window.
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
				for x = 1 + box3RowVector(drow[1:w-1], r0, r1, r2); x < w-1; x++ {
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

// MedianDenoise3Into applies a 3×3 median filter per channel, an
// edge-preserving denoiser used by the higher-end ISP profiles: it
// median-filters im into dst (same dimensions, every
// sample overwritten) and returns dst. dst must not alias im.
//
// A 3×3 window is three 3-tall columns, and each column is shared by three
// horizontally adjacent windows: sort a column once as it slides in, then
// the window's median is med3(max of the column minima, med3 of the column
// medians, min of the column maxima) — 18 min/max a sample, none a branch on
// pixel data. The vector kernel sorts a row's columns in one pass and takes
// the medians in a second, from the sorted columns at x-1, x and x+1. Edge
// clamping repeats the outermost row or column, so a border
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
	keys := medianKeys(w)
	defer releaseMedianKeys(keys)
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
			if median3RowVector(drow, r0, r1, r2, keys) {
				continue
			}
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
