package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over NCHW tensors.
type ConvDims struct {
	InC, InH, InW    int // input channels and spatial size
	KH, KW           int // kernel size
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height for the geometry.
func (d ConvDims) OutH() int { return (d.InH+2*d.PadH-d.KH)/d.StrideH + 1 }

// OutW returns the output width for the geometry.
func (d ConvDims) OutW() int { return (d.InW+2*d.PadW-d.KW)/d.StrideW + 1 }

// Validate checks that the geometry is internally consistent.
func (d ConvDims) Validate() error {
	if d.InC <= 0 || d.InH <= 0 || d.InW <= 0 {
		return fmt.Errorf("tensor: conv dims: non-positive input %dx%dx%d", d.InC, d.InH, d.InW)
	}
	if d.KH <= 0 || d.KW <= 0 {
		return fmt.Errorf("tensor: conv dims: non-positive kernel %dx%d", d.KH, d.KW)
	}
	if d.StrideH <= 0 || d.StrideW <= 0 {
		return fmt.Errorf("tensor: conv dims: non-positive stride %dx%d", d.StrideH, d.StrideW)
	}
	if d.PadH < 0 || d.PadW < 0 {
		return fmt.Errorf("tensor: conv dims: negative padding %dx%d", d.PadH, d.PadW)
	}
	if d.InH+2*d.PadH < d.KH || d.InW+2*d.PadW < d.KW {
		return fmt.Errorf("tensor: conv dims: kernel %dx%d larger than padded input", d.KH, d.KW)
	}
	return nil
}

// Col2Im scatters a column matrix (outH*outW, C*KH*KW), one row per output
// pixel holding its receptive field in (c, ky, kx) order, back into an image
// gradient (C,H,W), accumulating overlapping contributions. dst is not
// zeroed; callers typically pass a fresh buffer.
func Col2Im(dst, src []float32, d ConvDims) {
	outH, outW := d.OutH(), d.OutW()
	cols := d.InC * d.KH * d.KW
	if len(src) != outH*outW*cols {
		panic(fmt.Sprintf("tensor: Col2Im src length %d want %d", len(src), outH*outW*cols))
	}
	if len(dst) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d want %d", len(dst), d.InC*d.InH*d.InW))
	}
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*d.StrideH - d.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*d.StrideW - d.PadW
			for c := 0; c < d.InC; c++ {
				plane := dst[c*d.InH*d.InW:]
				for ky := 0; ky < d.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= d.InH {
						idx += d.KW
						continue
					}
					row := plane[iy*d.InW : iy*d.InW+d.InW]
					for kx := 0; kx < d.KW; kx++ {
						ix := ix0 + kx
						if ix >= 0 && ix < d.InW {
							row[ix] += src[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
