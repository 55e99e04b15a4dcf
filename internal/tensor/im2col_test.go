package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// im2col is the planar im2col Col2Im is the adjoint of: one image (C,H,W)
// in src becomes the (C*KH*KW, outH*outW) matrix dst whose row for a tap
// (c, ky, kx) holds that tap of every output pixel, zero in the padding.
func im2col(dst, src []float32, d ConvDims) {
	np := d.OutH() * d.OutW()
	cols := d.InC * d.KH * d.KW
	if len(dst) != np*cols {
		panic(fmt.Sprintf("tensor: im2col dst length %d want %d", len(dst), np*cols))
	}
	if len(src) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: im2col src length %d want %d", len(src), d.InC*d.InH*d.InW))
	}
	idx := 0
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				for oy := 0; oy < d.OutH(); oy++ {
					for ox := 0; ox < d.OutW(); ox++ {
						iy, ix := oy*d.StrideH-d.PadH+ky, ox*d.StrideW-d.PadW+kx
						dst[idx] = 0
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							dst[idx] = src[(c*d.InH+iy)*d.InW+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

func TestConvDimsOutputSize(t *testing.T) {
	d := ConvDims{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if d.OutH() != 32 || d.OutW() != 32 {
		t.Fatalf("same-padding conv output %dx%d, want 32x32", d.OutH(), d.OutW())
	}
	d.StrideH, d.StrideW = 2, 2
	if d.OutH() != 16 || d.OutW() != 16 {
		t.Fatalf("strided conv output %dx%d, want 16x16", d.OutH(), d.OutW())
	}
}

func TestConvDimsValidate(t *testing.T) {
	good := ConvDims{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dims rejected: %v", err)
	}
	for _, bad := range []ConvDims{
		{InC: 0, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 0, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid dims accepted: %+v", bad)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// With a 1x1 kernel and stride 1, im2col is the identity layout.
	d := ConvDims{InC: 2, InH: 3, InW: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	src := make([]float32, 18)
	for i := range src {
		src[i] = float32(i)
	}
	dst := make([]float32, 9*2)
	im2col(dst, src, d)
	// Row c is channel c's plane as it stands.
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("dst = %v, want %v", dst, src)
		}
	}
}

func TestIm2ColPaddingIsZero(t *testing.T) {
	d := ConvDims{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, d.OutH()*d.OutW()*9)
	im2col(dst, src, d)
	// First output pixel (0,0), tap j at dst[j*4]: the top-left receptive
	// field rows include padding. Kernel center samples src[0].
	var first []float32
	for j := 0; j < 9; j++ {
		first = append(first, dst[j*4])
	}
	want := []float32{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("padded field = %v, want %v", first, want)
		}
	}
}

func TestIm2ColLengthPanics(t *testing.T) {
	d := ConvDims{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	assertPanics(t, func() { im2col(make([]float32, 3), make([]float32, 16), d) })
	assertPanics(t, func() { im2col(make([]float32, 16*9), make([]float32, 15), d) })
	assertPanics(t, func() { Col2Im(make([]float32, 16), make([]float32, 3), d) })
	assertPanics(t, func() { Col2Im(make([]float32, 15), make([]float32, 16*9), d) })
}

// TestCol2ImIsAdjoint checks the defining property of the pair: for all x, y
// ⟨im2col(x), y⟩ == ⟨x, Col2Im(y)⟩, i.e. Col2Im is the transpose of the
// linear map im2col. This single property catches nearly every indexing bug.
func TestCol2ImIsAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := ConvDims{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(6), InW: 3 + rng.Intn(6),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if d.Validate() != nil {
			return true // skip impossible geometry
		}
		nIn := d.InC * d.InH * d.InW
		nCol := d.OutH() * d.OutW() * d.InC * d.KH * d.KW
		x := make([]float32, nIn)
		y := make([]float32, nCol)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range y {
			y[i] = float32(rng.NormFloat64())
		}
		colX := make([]float32, nCol)
		im2col(colX, x, d)
		backY := make([]float32, nIn)
		Col2Im(backY, y, d)
		var lhs, rhs float64
		for i := range colX {
			lhs += float64(colX[i]) * float64(y[i])
		}
		for i := range x {
			rhs += float64(x[i]) * float64(backY[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if lhs > 1 || lhs < -1 {
			scale = lhs
			if scale < 0 {
				scale = -scale
			}
		}
		return diff/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
