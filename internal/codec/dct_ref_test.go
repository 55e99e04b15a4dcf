package codec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// This file keeps the pre-rewrite codec kernels — the generic triple-loop
// separable DCT, per-call zigzag recomputation, and the zero-then-scatter
// dequantizer — as the reference the specialized kernels in dct.go and
// codec.go are byte-diffed against. "Byte-diff" is literal: every comparison
// is on float32 bit patterns (or exact int32 coefficients), not tolerances,
// because the rewrites claim bit-identity, not approximation.

// refDCTBasis is the pre-rewrite basis struct: rows of the orthonormal
// DCT-II basis for an n×n transform, built per size.
type refDCTBasis struct {
	n     int
	basis []float32 // basis[k*n+i] = c(k)·cos((2i+1)kπ/2n)
}

func refNewDCTBasis(n int) *refDCTBasis {
	b := &refDCTBasis{n: n, basis: make([]float32, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			b.basis[k*n+i] = float32(c * math.Cos(float64(2*i+1)*float64(k)*math.Pi/float64(2*n)))
		}
	}
	return b
}

// refForward2D is the pre-rewrite forward transform: separable row pass then
// column pass, naive triple loops.
func (b *refDCTBasis) refForward2D(dst, src []float32) {
	n := b.n
	var tmp [256]float32
	for y := 0; y < n; y++ {
		row := src[y*n : (y+1)*n]
		for k := 0; k < n; k++ {
			bk := b.basis[k*n : (k+1)*n]
			var s float32
			for i := 0; i < n; i++ {
				s += row[i] * bk[i]
			}
			tmp[y*n+k] = s
		}
	}
	for x := 0; x < n; x++ {
		for k := 0; k < n; k++ {
			bk := b.basis[k*n : (k+1)*n]
			var s float32
			for i := 0; i < n; i++ {
				s += tmp[i*n+x] * bk[i]
			}
			dst[k*n+x] = s
		}
	}
}

// refInverse2D is the pre-rewrite inverse transform: columns then rows,
// accumulating over ascending frequency index.
func (b *refDCTBasis) refInverse2D(dst, src []float32) {
	n := b.n
	var tmp [256]float32
	for x := 0; x < n; x++ {
		for i := 0; i < n; i++ {
			var s float32
			for k := 0; k < n; k++ {
				s += src[k*n+x] * b.basis[k*n+i]
			}
			tmp[i*n+x] = s
		}
	}
	for y := 0; y < n; y++ {
		row := tmp[y*n : (y+1)*n]
		for i := 0; i < n; i++ {
			var s float32
			for k := 0; k < n; k++ {
				s += row[k] * b.basis[k*n+i]
			}
			dst[y*n+i] = s
		}
	}
}

// refEncodePlane is the pre-rewrite plane encoder: clamped per-sample block
// load, generic transform, per-call zigzag, scalar quantize.
func refEncodePlane(samples []float32, w, h, blockSize int, quant []float32, mid float32) planeData {
	b := refNewDCTBasis(blockSize)
	zz := zigzagOrder(blockSize)
	bw := (w + blockSize - 1) / blockSize
	bh := (h + blockSize - 1) / blockSize
	n2 := blockSize * blockSize
	coeffs := make([]int32, bw*bh*n2)
	block := make([]float32, n2)
	freq := make([]float32, n2)
	bi := 0
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			for yy := 0; yy < blockSize; yy++ {
				sy := by*blockSize + yy
				if sy >= h {
					sy = h - 1
				}
				for xx := 0; xx < blockSize; xx++ {
					sx := bx*blockSize + xx
					if sx >= w {
						sx = w - 1
					}
					block[yy*blockSize+xx] = samples[sy*w+sx] - mid
				}
			}
			b.refForward2D(freq, block)
			out := coeffs[bi*n2 : (bi+1)*n2]
			for i, zi := range zz {
				q := freq[zi] / quant[zi]
				if q >= 0 {
					out[i] = int32(q + 0.5)
				} else {
					out[i] = int32(q - 0.5)
				}
			}
			bi++
		}
	}
	return planeData{w: w, h: h, blockSize: blockSize, quant: quant, coeffs: coeffs, mid: mid}
}

// refDecodePlane is the pre-rewrite plane decoder, including the (redundant)
// frequency-block zeroing before the zigzag scatter.
func refDecodePlane(p *planeData, out []float32) []float32 {
	b := refNewDCTBasis(p.blockSize)
	zz := zigzagOrder(p.blockSize)
	n2 := p.blockSize * p.blockSize
	freq := make([]float32, n2)
	spatial := make([]float32, n2)
	mid := p.mid
	bi := 0
	for by := 0; by*p.blockSize < p.h; by++ {
		for bx := 0; bx*p.blockSize < p.w; bx++ {
			cf := p.coeffs[bi*n2 : (bi+1)*n2]
			for i := range freq {
				freq[i] = 0
			}
			for i, zi := range zz {
				freq[zi] = float32(cf[i]) * p.quant[zi]
			}
			b.refInverse2D(spatial, freq)
			for yy := 0; yy < p.blockSize; yy++ {
				sy := by*p.blockSize + yy
				if sy >= p.h {
					continue
				}
				for xx := 0; xx < p.blockSize; xx++ {
					sx := bx*p.blockSize + xx
					if sx >= p.w {
						continue
					}
					out[sy*p.w+sx] = spatial[yy*p.blockSize+xx] + mid
				}
			}
			bi++
		}
	}
	return out
}

// refDownsample2x is the pre-rewrite box downsampler: per-sample bounds
// checks and a live contribution count for every cell.
func refDownsample2x(src []float32, w, h int) ([]float32, int, int) {
	dw := (w + 1) / 2
	dh := (h + 1) / 2
	dst := make([]float32, dw*dh)
	for y := 0; y < dh; y++ {
		for x := 0; x < dw; x++ {
			var s float32
			var c float32
			for dy := 0; dy < 2; dy++ {
				sy := 2*y + dy
				if sy >= h {
					continue
				}
				for dx := 0; dx < 2; dx++ {
					sx := 2*x + dx
					if sx >= w {
						continue
					}
					s += src[sy*w+sx]
					c++
				}
			}
			dst[y*dw+x] = s / c
		}
	}
	return dst, dw, dh
}

// refUpsample2x is the pre-rewrite upsampler: horizontal taps recomputed
// per pixel.
func refUpsample2x(src []float32, sw, sh, w, h int, mode UpsampleMode) []float32 {
	dst := make([]float32, w*h)
	if mode == UpsampleNearest {
		for y := 0; y < h; y++ {
			sy := y / 2
			if sy >= sh {
				sy = sh - 1
			}
			for x := 0; x < w; x++ {
				sx := x / 2
				if sx >= sw {
					sx = sw - 1
				}
				dst[y*w+x] = src[sy*sw+sx]
			}
		}
		return dst
	}
	for y := 0; y < h; y++ {
		fy := (float32(y)+0.5)/2 - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
		}
		y1 := y0 + 1
		if y1 >= sh {
			y1 = sh - 1
		}
		wy := fy - float32(y0)
		if wy < 0 {
			wy = 0
		}
		for x := 0; x < w; x++ {
			fx := (float32(x)+0.5)/2 - 0.5
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
			v00 := src[y0*sw+x0]
			v01 := src[y0*sw+x1]
			v10 := src[y1*sw+x0]
			v11 := src[y1*sw+x1]
			top := v00 + (v01-v00)*wx
			bot := v10 + (v11-v10)*wx
			dst[y*w+x] = top + (bot-top)*wy
		}
	}
	return dst
}

// refEntropyBits is the pre-rewrite size model with the forward
// last-nonzero scan.
func refEntropyBits(p *planeData) int {
	n2 := p.blockSize * p.blockSize
	bits := 0
	var prevDC int32
	for bi := 0; bi*n2 < len(p.coeffs); bi++ {
		cf := p.coeffs[bi*n2 : (bi+1)*n2]
		dcDiff := cf[0] - prevDC
		prevDC = cf[0]
		bits += 3 + magnitudeBits(dcDiff)
		run := 0
		lastNZ := 0
		for i := 1; i < n2; i++ {
			if cf[i] != 0 {
				lastNZ = i
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

// refChromaTable reproduces the WebP/HEIF quant-table derivation so the
// reference encoder can be driven with the exact tables the codecs cache.
func refChromaTable(base []int, blockSize int, flatten float64, q int) []float32 {
	tab := scaleTable(flattenTable(resampleTable8(base, blockSize), flatten), q)
	for i := range tab {
		tab[i] /= 255
	}
	return tab
}

func f32BitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBasisTablesMatchReference pins the precomputed basis (and transpose)
// arrays against the reference constructor, bit for bit.
func TestBasisTablesMatchReference(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		ref := refNewDCTBasis(n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				var got, gotT float32
				switch n {
				case 4:
					got, gotT = basis4[k][i], basisT4[i][k]
				case 8:
					got, gotT = basis8[k][i], basisT8[i][k]
				case 16:
					got, gotT = basis16[k][i], basisT16[i][k]
				}
				want := ref.basis[k*n+i]
				if math.Float32bits(got) != math.Float32bits(want) || math.Float32bits(gotT) != math.Float32bits(want) {
					t.Fatalf("n=%d basis[%d][%d]: got %x/%x want %x", n, k, i, math.Float32bits(got), math.Float32bits(gotT), math.Float32bits(want))
				}
			}
		}
	}
}

// TestFastDCTBitIdenticalToReference byte-diffs the specialized forward and
// inverse transforms against the generic triple loops on random blocks.
func TestFastDCTBitIdenticalToReference(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		ref := refNewDCTBasis(n)
		rng := rand.New(rand.NewSource(int64(100 + n)))
		src := make([]float32, n*n)
		fastF := make([]float32, n*n)
		refF := make([]float32, n*n)
		fastI := make([]float32, n*n)
		refI := make([]float32, n*n)
		for trial := 0; trial < 200; trial++ {
			for i := range src {
				src[i] = float32(rng.NormFloat64())
			}
			forward2D(n, fastF, src)
			ref.refForward2D(refF, src)
			if !f32BitsEqual(fastF, refF) {
				t.Fatalf("n=%d trial %d: forward2D diverged from reference", n, trial)
			}
			inverse2D(n, fastI, refF)
			ref.refInverse2D(refI, refF)
			if !f32BitsEqual(fastI, refI) {
				t.Fatalf("n=%d trial %d: inverse2D diverged from reference", n, trial)
			}
		}
	}
}

// TestZigzagTablesPinned pins the precomputed scan tables against the
// generative zigzagOrder, and the 8×8 table against the canonical JPEG scan.
func TestZigzagTablesPinned(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		want := zigzagOrder(n)
		got := zigzagFor(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: table length %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: zigzagFor[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
	// The canonical JPEG 8×8 zigzag sequence (Annex A of T.81), as
	// row-major indices.
	jpegScan := []int{
		0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
		12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
		35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
		58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
	}
	for i, want := range jpegScan {
		if zigzag8[i] != want {
			t.Fatalf("zigzag8[%d] = %d, want %d (JPEG canonical scan)", i, zigzag8[i], want)
		}
	}
}

// TestEncodeDecodePlaneBitIdenticalToReference sweeps the three block sizes
// × quality levels × odd plane sizes and byte-diffs the rewritten plane
// encode/decode (specialized DCT, precomputed zigzag, unrolled quant,
// no-zeroing dequant, interior fast paths) against the kept reference.
func TestEncodeDecodePlaneBitIdenticalToReference(t *testing.T) {
	dims := [][2]int{{17, 13}, {9, 25}, {33, 31}, {16, 16}}
	for _, blockSize := range []int{4, 8, 16} {
		for _, quality := range []int{30, 75, 92} {
			quant := refChromaTable(jpegLumaQ8[:], blockSize, 0.35, quality)
			for _, d := range dims {
				w, h := d[0], d[1]
				rng := rand.New(rand.NewSource(int64(blockSize*1000 + quality*10 + w)))
				samples := make([]float32, w*h)
				for i := range samples {
					samples[i] = float32(rng.Float64())
				}
				want := refEncodePlane(samples, w, h, blockSize, quant, 0.5)
				s := scratchPool.Get().(*scratch)
				var got planeData
				encodePlaneInto(&got, samples, w, h, blockSize, quant, 0.5, s)
				if len(got.coeffs) != len(want.coeffs) {
					t.Fatalf("n=%d q=%d %dx%d: coeff count %d, want %d", blockSize, quality, w, h, len(got.coeffs), len(want.coeffs))
				}
				for i := range want.coeffs {
					if got.coeffs[i] != want.coeffs[i] {
						t.Fatalf("n=%d q=%d %dx%d: coeff %d = %d, want %d", blockSize, quality, w, h, i, got.coeffs[i], want.coeffs[i])
					}
				}
				wantOut := refDecodePlane(&want, make([]float32, w*h))
				gotOut := decodePlane(&got, make([]float32, w*h), s)
				scratchPool.Put(s)
				if !f32BitsEqual(gotOut, wantOut) {
					t.Fatalf("n=%d q=%d %dx%d: decodePlane diverged from reference", blockSize, quality, w, h)
				}
			}
		}
	}
}

// TestResampleAndEntropyBitIdenticalToReference byte-diffs the rewritten
// chroma resamplers (interior fast path, hoisted taps) and the
// backward-scan entropy model against their kept reference forms on odd
// plane sizes.
func TestResampleAndEntropyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, d := range [][2]int{{17, 13}, {9, 25}, {16, 16}, {33, 31}, {1, 7}, {7, 1}} {
		w, h := d[0], d[1]
		src := make([]float32, w*h)
		for i := range src {
			src[i] = float32(rng.Float64())
		}
		wantD, dw, dh := refDownsample2x(src, w, h)
		gotD, gw, gh := downsample2x(nil, src, w, h)
		if gw != dw || gh != dh || !f32BitsEqual(gotD, wantD) {
			t.Fatalf("%dx%d: downsample2x diverged from reference", w, h)
		}
		for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
			want := refUpsample2x(wantD, dw, dh, w, h, mode)
			got := upsample2x(nil, gotD, dw, dh, w, h, mode, nil)
			if !f32BitsEqual(got, want) {
				t.Fatalf("%dx%d mode=%d: upsample2x diverged from reference", w, h, mode)
			}
			s := scratchPool.Get().(*scratch)
			got = upsample2x(nil, gotD, dw, dh, w, h, mode, s)
			scratchPool.Put(s)
			if !f32BitsEqual(got, want) {
				t.Fatalf("%dx%d mode=%d: upsample2x (scratch taps) diverged from reference", w, h, mode)
			}
		}
		quant := refChromaTable(jpegLumaQ8[:], 8, 0.35, 60)
		p := refEncodePlane(src, w, h, 8, quant, 0.5)
		if got, want := entropyBits(&p), refEntropyBits(&p); got != want {
			t.Fatalf("%dx%d: entropyBits = %d, reference = %d", w, h, got, want)
		}
	}
}

// TestCodecRoundtripBitIdenticalToReference drives the full public
// Encode/Decode of every lossy format against a reference pipeline built
// from the kept pre-rewrite pieces (allocating color conversion, reference
// plane codec, same subsampling and entropy model), across quality levels
// and odd image sizes. This is the end-to-end guarantee: the hot-path
// overhaul changed no output byte.
func TestCodecRoundtripBitIdenticalToReference(t *testing.T) {
	type format struct {
		name        string
		blockSize   int
		flatten     float64
		headerBytes int
		sizeNum     int // post-hoc size scaling numerator/100
		codec       func(q int) Codec
		quality     func(q int) int
		lumaBase    func(q int) []float32
		chromaBase  func(q int) []float32
	}
	formats := []format{
		{
			name: "jpeg", blockSize: 8, headerBytes: 600, sizeNum: 100,
			codec: func(q int) Codec { return NewJPEG(q) },
			lumaBase: func(q int) []float32 {
				l, _ := jpegTables(q)
				return l
			},
			chromaBase: func(q int) []float32 {
				_, c := jpegTables(q)
				return c
			},
		},
		{
			name: "webp", blockSize: 4, headerBytes: 300, sizeNum: 38,
			codec: func(q int) Codec { return NewWebP(q) },
			lumaBase: func(q int) []float32 {
				eq := q - 12
				if eq < 1 {
					eq = 1
				}
				return refChromaTable(jpegLumaQ8[:], 4, 0.35, eq)
			},
			chromaBase: func(q int) []float32 {
				eq := q - 12
				if eq < 1 {
					eq = 1
				}
				return refChromaTable(jpegChromaQ8[:], 4, 0.35, eq)
			},
		},
		{
			name: "heif", blockSize: 16, headerBytes: 400, sizeNum: 65,
			codec: func(q int) Codec { return NewHEIF(q) },
			lumaBase: func(q int) []float32 {
				return refChromaTable(jpegLumaQ8[:], 16, 0.5, q)
			},
			chromaBase: func(q int) []float32 {
				return refChromaTable(jpegChromaQ8[:], 16, 0.5, q)
			},
		},
	}
	dims := [][2]int{{17, 13}, {33, 31}}
	for _, f := range formats {
		for _, quality := range []int{30, 75, 92} {
			luma := f.lumaBase(quality)
			chroma := f.chromaBase(quality)
			c := f.codec(quality)
			for _, d := range dims {
				w, h := d[0], d[1]
				rng := rand.New(rand.NewSource(int64(len(f.name)*10000 + quality*100 + w)))
				im := randImage(rng, w, h)

				// Reference encode: allocating color conversion, reference
				// plane codec, same 4:2:0 subsampling and size model.
				yc := imaging.RGBToYCbCr(im)
				yP := refEncodePlane(yc.Y, w, h, f.blockSize, luma, 0.5)
				cb, cw, ch := refDownsample2x(yc.Cb, w, h)
				cr, _, _ := refDownsample2x(yc.Cr, w, h)
				cbP := refEncodePlane(cb, cw, ch, f.blockSize, chroma, 0)
				crP := refEncodePlane(cr, cw, ch, f.blockSize, chroma, 0)
				bits := refEntropyBits(&yP) + refEntropyBits(&cbP) + refEntropyBits(&crP)
				wantSize := (f.headerBytes + (bits+7)/8) * f.sizeNum / 100

				enc := c.Encode(im)
				if enc.Size != wantSize {
					t.Fatalf("%s q=%d %dx%d: Size = %d, want %d", f.name, quality, w, h, enc.Size, wantSize)
				}
				for pi, want := range []planeData{yP, cbP, crP} {
					got := enc.planes[pi]
					for i := range want.coeffs {
						if got.coeffs[i] != want.coeffs[i] {
							t.Fatalf("%s q=%d %dx%d plane %d: coeff %d = %d, want %d", f.name, quality, w, h, pi, i, got.coeffs[i], want.coeffs[i])
						}
					}
				}

				// Reference decode for both chroma upsampling modes.
				for _, mode := range []UpsampleMode{UpsampleBilinear, UpsampleNearest} {
					yOut := refDecodePlane(&yP, make([]float32, w*h))
					cbOut := refDecodePlane(&cbP, make([]float32, cw*ch))
					crOut := refDecodePlane(&crP, make([]float32, cw*ch))
					cbUp := refUpsample2x(cbOut, cw, ch, w, h, mode)
					crUp := refUpsample2x(crOut, cw, ch, w, h, mode)
					refYC := &imaging.YCbCr{W: w, H: h, Y: yOut, Cb: cbUp, Cr: crUp}
					want := refYC.ToRGB().Clamp().Quantize8()
					got := enc.Decode(DecodeOptions{ChromaUpsample: mode})
					if !f32BitsEqual(got.Pix, want.Pix) {
						t.Fatalf("%s q=%d %dx%d mode=%d: Decode diverged from reference", f.name, quality, w, h, mode)
					}
				}
			}
		}
	}
}

// refQuantRound is the retired rounding: half away from zero through a
// branch on the sign.
func refQuantRound(q float32) int32 {
	if q >= 0 {
		return int32(q + 0.5)
	}
	return int32(q - 0.5)
}

// TestQuantRoundMatchesReference sweeps the sign-copy rounding against the
// branch over the values where they could part: both zeros, the halves and
// their float32 neighbours (where q±0.5 rounds), the last magnitudes with a
// fractional part and the first without (±2²³), the edge of int32, and a
// million random quotients of the size a quantizer sees.
func TestQuantRoundMatchesReference(t *testing.T) {
	check := func(q float32) {
		t.Helper()
		if got, want := quantRound(q), refQuantRound(q); got != want {
			t.Fatalf("quantRound(%v [%#x]) = %d, reference %d", q, math.Float32bits(q), got, want)
		}
	}
	for _, v := range []float32{0, 0.25, 0.5, 1, 1.5, 2.5, 1 << 22, 1 << 23, 1 << 24, 1<<31 - 128, math.SmallestNonzeroFloat32} {
		for _, q := range []float32{v, math.Nextafter32(v, 0), math.Nextafter32(v, 2*v+1)} {
			check(q)
			check(-q)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1_000_000; i++ {
		check(float32(rng.NormFloat64()) * []float32{0.6, 8, 300}[i%3])
	}
	// Every multiple of 1/8 in [-64, 64]: each exact tie and both its sides.
	for i := -512; i <= 512; i++ {
		check(float32(i) / 8)
	}
}
