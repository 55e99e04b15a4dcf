package imaging

// Resize scales the image to (w,h). Downscaling uses box averaging (which is
// what camera pipelines and ML preprocessing do to avoid aliasing);
// upscaling uses bilinear interpolation.
func Resize(src *Image, w, h int) *Image {
	dst := New(w, h)
	resizeInto(dst.Pix, src, w, h)
	return dst
}

// resizeInto is Resize into the planar w×h buffer dst, every sample of which
// is overwritten.
func resizeInto(dst []float32, src *Image, w, h int) {
	switch {
	case w == src.W && h == src.H:
		copy(dst, src.Pix)
	case w <= src.W && h <= src.H:
		boxDown(dst, src, w, h)
	default:
		bilinear(dst, src, w, h)
	}
}

// boxDown averages the source pixels that fall in each destination cell.
func boxDown(dst []float32, src *Image, w, h int) {
	sn := src.W * src.H
	dn := w * h
	if src.W == 2*w && src.H == 2*h {
		// Exactly 2:1 — a full-resolution capture to the model input, a
		// scene to the half-resolution display: the cell bounds below come
		// out as 2x, 2x+2 and 2y, 2y+2, so this is the same four adds in the
		// same row-major order from +0, without float index math per pixel,
		// on the vector kernel where there is one.
		for p := 0; p < 3; p++ {
			plane := src.Pix[p*sn : (p+1)*sn]
			if halve2x2Vector(dst[p*dn:(p+1)*dn], plane, w, h) {
				continue
			}
			for y := 0; y < h; y++ {
				r0 := plane[2*y*src.W : (2*y+1)*src.W]
				r1 := plane[(2*y+1)*src.W : (2*y+2)*src.W]
				drow := dst[p*dn+y*w : p*dn+(y+1)*w]
				for x := range drow {
					var s float32
					s += r0[2*x]
					s += r0[2*x+1]
					s += r1[2*x]
					s += r1[2*x+1]
					drow[x] = s * 0.25
				}
			}
		}
		return
	}
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		sy0 := int(float64(y) * yr)
		sy1 := int(float64(y+1) * yr)
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		if sy1 > src.H {
			sy1 = src.H
		}
		for x := 0; x < w; x++ {
			sx0 := int(float64(x) * xr)
			sx1 := int(float64(x+1) * xr)
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			if sx1 > src.W {
				sx1 = src.W
			}
			inv := 1 / float32((sy1-sy0)*(sx1-sx0))
			for p := 0; p < 3; p++ {
				var s float32
				for sy := sy0; sy < sy1; sy++ {
					row := src.Pix[p*sn+sy*src.W:]
					for sx := sx0; sx < sx1; sx++ {
						s += row[sx]
					}
				}
				dst[p*dn+y*w+x] = s * inv
			}
		}
	}
}

// bilinear interpolates with edge clamping.
func bilinear(dst []float32, src *Image, w, h int) {
	sn := src.W * src.H
	dn := w * h
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := float64((float64(y)+0.5)*yr) - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
		}
		y1 := y0 + 1
		if y1 >= src.H {
			y1 = src.H - 1
		}
		wy := float32(fy - float64(y0))
		if wy < 0 {
			wy = 0
		}
		for x := 0; x < w; x++ {
			fx := float64((float64(x)+0.5)*xr) - 0.5
			x0 := int(fx)
			if fx < 0 {
				x0 = 0
			}
			x1 := x0 + 1
			if x1 >= src.W {
				x1 = src.W - 1
			}
			wx := float32(fx - float64(x0))
			if wx < 0 {
				wx = 0
			}
			for p := 0; p < 3; p++ {
				pl := src.Pix[p*sn:]
				v00 := pl[y0*src.W+x0]
				v01 := pl[y0*src.W+x1]
				v10 := pl[y1*src.W+x0]
				v11 := pl[y1*src.W+x1]
				top := v00 + float32((v01-v00)*wx)
				bot := v10 + float32((v11-v10)*wx)
				dst[p*dn+y*w+x] = top + float32((bot-top)*wy)
			}
		}
	}
}
