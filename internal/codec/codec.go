package codec

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/imaging"
)

// UpsampleMode selects how a decoder reconstructs subsampled chroma. Real
// platforms disagree here — libjpeg-turbo's "fancy" (triangle/bilinear)
// upsampling versus simple pixel replication — which is exactly the decoder
// divergence the paper traced in §7 via MD5 mismatches on Huawei/Xiaomi.
type UpsampleMode int

// Supported chroma upsampling modes.
const (
	// UpsampleBilinear is the high-quality triangle-filter reconstruction.
	UpsampleBilinear UpsampleMode = iota
	// UpsampleNearest is fast pixel replication.
	UpsampleNearest
)

// DecodeOptions carries decoder-side degrees of freedom.
type DecodeOptions struct {
	ChromaUpsample UpsampleMode
}

// Codec compresses an image into an Encoded representation.
type Codec interface {
	// Name identifies the format (e.g. "jpeg-q85").
	Name() string
	// Encode compresses the image. The returned Encoded is immutable; a
	// caller that drops every reference may recycle it with Release.
	Encode(im *imaging.Image) *Encoded
}

// planeData holds one channel's quantized coefficients (lossy formats).
type planeData struct {
	w, h      int       // plane dimensions (chroma is half-size)
	blockSize int       // transform support
	quant     []float32 // quant table, blockSize² entries
	coeffs    []int32   // quantized coefficients, block-major, zigzag order within block
	mid       float32   // level shift subtracted before the transform
}

// Encoded is a compressed image. Lossy formats store quantized transform
// coefficients, chroma at half resolution; PNG stores the exact 8-bit
// samples. Size is the compressed size in bytes (an entropy-model estimate
// for the lossy formats, the real zlib size for PNG).
type Encoded struct {
	Format string
	W, H   int
	Size   int
	planes []planeData
	raw    []byte // PNG only: interleaved 8-bit RGB
}

// Decode reconstructs the image. For lossy formats the result depends on
// opts (chroma upsampling); PNG is bit-exact and ignores opts.
func (e *Encoded) Decode(opts DecodeOptions) *imaging.Image {
	return e.DecodeInto(opts, imaging.New(e.W, e.H))
}

// DecodeInto reconstructs the image into dst (dimensions W×H; every sample
// is overwritten, so a dirty pooled image is fine) and returns it. This is
// the allocation-free form the capture hot path uses with imaging.GetImage.
func (e *Encoded) DecodeInto(opts DecodeOptions, dst *imaging.Image) *imaging.Image {
	if e.raw != nil {
		im, err := imaging.FromBytesInto(dst, e.raw, e.W, e.H)
		if err != nil {
			panic(fmt.Sprintf("codec: corrupt PNG payload: %v", err))
		}
		return im
	}
	s := scratchPool.Get().(*scratch)
	y := decodePlane(&e.planes[0], grow(&s.planes[0], e.planes[0].w*e.planes[0].h), s)
	cb := decodePlane(&e.planes[1], grow(&s.planes[1], e.planes[1].w*e.planes[1].h), s)
	cr := decodePlane(&e.planes[2], grow(&s.planes[2], e.planes[2].w*e.planes[2].h), s)
	cb = upsample2x(grow(&s.up[0], e.W*e.H), cb, e.planes[1].w, e.planes[1].h, e.W, e.H, opts.ChromaUpsample, s)
	cr = upsample2x(grow(&s.up[1], e.W*e.H), cr, e.planes[2].w, e.planes[2].h, e.W, e.H, opts.ChromaUpsample, s)
	yc := imaging.YCbCr{W: e.W, H: e.H, Y: y, Cb: cb, Cr: cr}
	// Decoders emit 8-bit pixels; the fused conversion quantizes in the
	// same pass so downstream hashing matches what a real gallery file
	// would contain (bit-identical to ToRGB().Clamp().Quantize8()).
	im := yc.ToRGBQuant8Into(dst)
	scratchPool.Put(s) // the conversion copied the planes out; buffers are free
	return im
}

// encodedPool recycles lossy Encoded frames (including their coefficient
// buffers) across captures. Every field is rewritten by encodeTransform
// before the frame is visible to a caller.
var encodedPool = sync.Pool{New: func() any { return &Encoded{planes: make([]planeData, 3)} }}

// Release returns a frame obtained from a lossy Encode to the codec's pool.
// Callers must drop every reference (including reads of e.Size) before
// releasing; releasing is optional — unreleased frames are simply collected.
// PNG frames are retained by their raw payload and are never pooled.
func Release(e *Encoded) {
	if e == nil || e.raw != nil || len(e.planes) != 3 {
		return
	}
	encodedPool.Put(e)
}

// encodePlaneInto transforms and quantizes one channel with the given block
// size and quant table, writing the result into p (whose coefficient buffer
// is reused when large enough). Samples outside the image are edge-padded.
// mid is subtracted before the transform (0.5 for luma-in-[0,1], 0 for
// chroma). Block scratch comes from s; a warm pass allocates nothing.
func encodePlaneInto(p *planeData, samples []float32, w, h, blockSize int, quant []float32, mid float32, s *scratch) {
	zz := zigzagFor(blockSize)
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	n2 := blockSize * blockSize
	coeffs := growInt32(&p.coeffs, bw*bh*n2)
	block := grow(&s.block, n2)
	freq := grow(&s.freq, n2)
	scanQuant := grow(&s.scanQuant, n2)
	for i, z := range zz {
		scanQuant[i] = quant[z]
	}
	bi := 0
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			loadBlock(block, samples, w, h, bx*blockSize, by*blockSize, blockSize, mid)
			forward2D(blockSize, freq, block)
			quantizeScan(coeffs[bi*n2:(bi+1)*n2], freq, scanQuant, zz)
			bi++
		}
	}
	p.w, p.h, p.blockSize, p.quant, p.mid = w, h, blockSize, quant, mid
	p.coeffs = coeffs
}

// loadBlock copies an n×n block at (x0,y0) into block, level-shifted by mid.
// Interior blocks take the row-sliced path (no per-sample clamps — identical
// values, the clamp never fires inside the image), on the vector kernel where
// there is one; edge blocks pad by clamping to the last row/column exactly as
// the reference loop did.
func loadBlock(block, samples []float32, w, h, x0, y0, n int, mid float32) {
	if x0+n <= w && y0+n <= h {
		if loadBlockVector(block, samples[y0*w+x0:], w, n, mid) {
			return
		}
		for yy := 0; yy < n; yy++ {
			src := samples[(y0+yy)*w+x0 : (y0+yy)*w+x0+n]
			dst := block[yy*n : yy*n+n]
			for i := range dst {
				dst[i] = src[i] - mid
			}
		}
		return
	}
	for yy := 0; yy < n; yy++ {
		sy := y0 + yy
		if sy >= h {
			sy = h - 1
		}
		for xx := 0; xx < n; xx++ {
			sx := x0 + xx
			if sx >= w {
				sx = w - 1
			}
			block[yy*n+xx] = samples[sy*w+sx] - mid
		}
	}
}

// decodePlane dequantizes and inverse-transforms one channel into out
// (length p.w*p.h, fully overwritten); block scratch comes from s.
func decodePlane(p *planeData, out []float32, s *scratch) []float32 {
	n := p.blockSize
	zz := zigzagFor(n)
	n2 := n * n
	freq := grow(&s.freq, n2)
	spatial := grow(&s.spatial, n2)
	mid := p.mid
	bi := 0
	for by := 0; by*n < p.h; by++ {
		for bx := 0; bx*n < p.w; bx++ {
			dequantizeScan(freq, p.coeffs[bi*n2:(bi+1)*n2], p.quant, zz)
			inverse2D(n, spatial, freq)
			storeBlock(out, spatial, p.w, p.h, bx*n, by*n, n, mid)
			bi++
		}
	}
	return out
}

// storeBlock writes an n×n spatial block at (x0,y0) into out, adding the
// level shift back; samples past the image edge are dropped. Interior blocks
// take the row-sliced path, on the vector kernel where there is one.
func storeBlock(out, spatial []float32, w, h, x0, y0, n int, mid float32) {
	if x0+n <= w && y0+n <= h {
		if storeBlockVector(out[y0*w+x0:], spatial, w, n, mid) {
			return
		}
		for yy := 0; yy < n; yy++ {
			src := spatial[yy*n : yy*n+n]
			dst := out[(y0+yy)*w+x0 : (y0+yy)*w+x0+n]
			for i := range dst {
				dst[i] = src[i] + mid
			}
		}
		return
	}
	for yy := 0; yy < n; yy++ {
		sy := y0 + yy
		if sy >= h {
			continue
		}
		for xx := 0; xx < n; xx++ {
			sx := x0 + xx
			if sx >= w {
				continue
			}
			out[sy*w+sx] = spatial[yy*n+xx] + mid
		}
	}
}

// downsample2x box-averages a plane to half resolution (4:2:0 chroma) into
// dst, which is fully overwritten (nil allocates). Full 2×2 cells take the
// row-sliced path — the accumulation order (top-left, top-right,
// bottom-left, bottom-right) matches the reference dy/dx loop exactly, and
// s/4 is the same division the reference's s/c performs with c == 4 — so
// the fast path is bit-identical; ragged right/bottom edges fall back to
// the counting loop. The vector kernel, where there is one, computes the full
// cells of the full rows.
func downsample2x(dst, src []float32, w, h int) ([]float32, int, int) {
	dw := (w + 1) / 2
	dh := (h + 1) / 2
	if dst == nil {
		dst = make([]float32, dw*dh)
	}
	dst = dst[:dw*dh]
	fw := w / 2 // full 2×2 columns
	vx := downsample2xVector(dst, src, h/2, fw, dw, w)
	for y := 0; y < dh; y++ {
		if 2*y+1 < h {
			top := src[2*y*w : 2*y*w+w]
			bot := src[(2*y+1)*w : (2*y+1)*w+w]
			out := dst[y*dw : y*dw+dw]
			for x := vx; x < fw; x++ {
				s := top[2*x] + top[2*x+1] + bot[2*x] + bot[2*x+1]
				out[x] = s / 4
			}
			if fw < dw { // odd width: last cell has one column
				s := top[w-1] + bot[w-1]
				out[dw-1] = s / 2
			}
			continue
		}
		// Last row of an odd-height plane: one source row per cell.
		row := src[2*y*w : 2*y*w+w]
		out := dst[y*dw : y*dw+dw]
		for x := 0; x < fw; x++ {
			out[x] = (row[2*x] + row[2*x+1]) / 2
		}
		if fw < dw {
			out[dw-1] = row[w-1] // c == 1: the average is the sample
		}
	}
	return dst, dw, dh
}

// upsample2x reconstructs a full-resolution plane from half-resolution
// chroma into dst, which is fully overwritten (nil allocates), with the
// decoder-dependent filter choice. s provides scratch for the hoisted
// horizontal taps (nil allocates them).
func upsample2x(dst, src []float32, sw, sh, w, h int, mode UpsampleMode, s *scratch) []float32 {
	if dst == nil {
		dst = make([]float32, w*h)
	}
	dst = dst[:w*h]
	if mode == UpsampleNearest {
		for y := 0; y < h; y++ {
			sy := y / 2
			if sy >= sh {
				sy = sh - 1
			}
			row := src[sy*sw : sy*sw+sw]
			out := dst[y*w : y*w+w]
			for x := nearestRowVector(out, row); x < w; x++ {
				sx := x / 2
				if sx >= sw {
					sx = sw - 1
				}
				out[x] = row[sx]
			}
		}
		return dst
	}
	// Triangle-filter ("fancy") upsampling: each output sample is a 3:1
	// blend of the two nearest chroma samples along each axis. The
	// horizontal taps (x0, x1, wx) depend only on x, so they are computed
	// once per call instead of once per pixel — the same expressions on the
	// same inputs yield the same floats, so hoisting is bit-identical.
	var x0s, x1s []int
	var wxs []float32
	if s != nil {
		x0s = growInts(&s.upx0, w)
		x1s = growInts(&s.upx1, w)
		wxs = grow(&s.upwx, w)
	} else {
		x0s = make([]int, w)
		x1s = make([]int, w)
		wxs = make([]float32, w)
	}
	for x := 0; x < w; x++ {
		fx := float32((float32(x)+0.5)/2) - 0.5
		x0 := int(fx)
		if fx < 0 {
			x0 = 0
		}
		x1 := x0 + 1
		if x1 >= sw {
			x1 = sw - 1
		}
		wx := fx - float32(x0)
		if wx < 0 {
			wx = 0
		}
		x0s[x], x1s[x], wxs[x] = x0, x1, wx
	}
	if upsampleFancyVector(dst, src, sw, sh, w, h, x0s, x1s, wxs, s) {
		return dst
	}
	for y := 0; y < h; y++ {
		y0, y1, wy := fancyRowTaps(y, sh)
		rowT := src[y0*sw : y0*sw+sw]
		rowB := src[y1*sw : y1*sw+sw]
		out := dst[y*w : y*w+w]
		for x := 0; x < w; x++ {
			x0, x1, wx := x0s[x], x1s[x], wxs[x]
			v00 := rowT[x0]
			v01 := rowT[x1]
			v10 := rowB[x0]
			v11 := rowB[x1]
			top := v00 + float32((v01-v00)*wx)
			bot := v10 + float32((v11-v10)*wx)
			out[x] = top + float32((bot-top)*wy)
		}
	}
	return dst
}

// fancyRowTaps are the source rows and weight of output row y of
// triangle-filter upsampling from sh source rows: the blend of rows y0 and y1,
// 3:1 or 1:3, or row 0 alone at the top.
func fancyRowTaps(y, sh int) (y0, y1 int, wy float32) {
	fy := float32((float32(y)+0.5)/2) - 0.5
	y0 = int(fy)
	if fy < 0 {
		y0 = 0
	}
	y1 = y0 + 1
	if y1 >= sh {
		y1 = sh - 1
	}
	wy = fy - float32(y0)
	if wy < 0 {
		wy = 0
	}
	return y0, y1, wy
}

// entropyBits estimates the coded size of a quantized plane with a
// JPEG-style model: DC coefficients are difference-coded with a magnitude
// category, AC coefficients cost a run/size prefix (≈4 bits) plus their
// magnitude bits, and end-of-block costs 4 bits.
func entropyBits(p *planeData) int {
	n2 := p.blockSize * p.blockSize
	bits := 0
	var prevDC int32
	for bi := 0; bi*n2 < len(p.coeffs); bi++ {
		cf := p.coeffs[bi*n2 : (bi+1)*n2]
		dcDiff := cf[0] - prevDC
		prevDC = cf[0]
		bits += 3 + magnitudeBits(dcDiff)
		run := 0
		// Quantized AC blocks end in a long zero tail; scanning backward
		// finds the last nonzero in a handful of steps instead of n².
		lastNZ := 0
		for i := n2 - 1; i >= 1; i-- {
			if cf[i] != 0 {
				lastNZ = i
				break
			}
		}
		for i := 1; i <= lastNZ; i++ {
			if cf[i] == 0 {
				run++
				if run == 16 {
					bits += 11 // ZRL
					run = 0
				}
				continue
			}
			bits += 4 + magnitudeBits(cf[i])
			run = 0
		}
		bits += 4 // EOB
	}
	return bits
}

// magnitudeBits is the bit length of |v|: the magnitude category of a
// coefficient. MinInt32, whose magnitude no int32 holds, costs 0 bits; it is
// the coefficient amd64 makes of a NaN or out-of-range quotient (quantRound),
// and the negation loop this replaced overflowed on it to the same 0.
func magnitudeBits(v int32) int {
	if v == math.MinInt32 {
		return 0
	}
	if v < 0 {
		v = -v
	}
	return bits.Len32(uint32(v))
}
