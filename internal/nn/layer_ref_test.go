package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The scalar reference of the float32 forward arithmetic. The layers'
// Forward and the inference plan run the same kernels (gemmBN, im2colPlanar,
// the depthwise op, denseInfer), so neither can check the other; this file
// keeps the loops they replaced — a row-major im2col with an ordered dot per
// output, the per-plane depthwise loop, a dot-product dense layer and
// BatchNorm's eval expression — as the independent definition both are
// diffed against. Every product is rounded before it is added, as the
// kernels round theirs.

// refIm2Col expands one image (C,H,W) into the (outH*outW, C*KH*KW) matrix
// whose row pi holds output pixel pi's receptive field in (c, ky, kx) order,
// zero in the padding.
func refIm2Col(dst, src []float32, d tensor.ConvDims) {
	outH, outW := d.OutH(), d.OutW()
	idx := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for c := 0; c < d.InC; c++ {
				for ky := 0; ky < d.KH; ky++ {
					for kx := 0; kx < d.KW; kx++ {
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

// refConv is Conv2D.Forward as im2col and one ordered dot per output, and
// the row-major panels it read, one an image.
func refConv(c *Conv2D, x *tensor.Tensor) (*tensor.Tensor, [][]float32) {
	n := x.Dim(0)
	d := c.dims
	d.InH, d.InW = x.Dim(2), x.Dim(3)
	p, k := d.OutH()*d.OutW(), d.InC*d.KH*d.KW
	imgIn := d.InC * d.InH * d.InW
	y := tensor.New(n, c.outC, d.OutH(), d.OutW())
	cols := make([][]float32, n)
	w := c.Weight.W.Data()
	for i := range cols {
		cols[i] = make([]float32, p*k)
		refIm2Col(cols[i], x.Data()[i*imgIn:(i+1)*imgIn], d)
		out := y.Data()[i*c.outC*p:]
		for o := 0; o < c.outC; o++ {
			for pi := 0; pi < p; pi++ {
				var s float32
				for j := 0; j < k; j++ {
					s += float32(w[o*k+j] * cols[i][pi*k+j])
				}
				out[o*p+pi] = s
			}
		}
	}
	return y, cols
}

// refConvGrad is Conv2D's weight gradient from zero: per image the ordered
// sum over pixels of dY·col, then the images added in order.
func refConvGrad(c *Conv2D, cols [][]float32, dy *tensor.Tensor) []float32 {
	k := len(c.Weight.W.Data()) / c.outC
	p := len(cols[0]) / k
	g := make([]float32, c.outC*k)
	for i, col := range cols {
		dyi := dy.Data()[i*c.outC*p:]
		for o := 0; o < c.outC; o++ {
			for j := 0; j < k; j++ {
				var s float32
				for pi := 0; pi < p; pi++ {
					s += float32(dyi[o*p+pi] * col[pi*k+j])
				}
				g[o*k+j] += s
			}
		}
	}
	return g
}

// refDepthwise is DepthwiseConv2D.Forward as the per-plane loop: each output
// the taps inside the input, added in ky,kx order from +0.
func refDepthwise(l *DepthwiseConv2D, x *tensor.Tensor) *tensor.Tensor {
	n, inH, inW := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := (inH+2*l.pad-l.kh)/l.stride + 1
	outW := (inW+2*l.pad-l.kw)/l.stride + 1
	y := tensor.New(n, l.ch, outH, outW)
	w := l.Weight.W.Data()
	for i := 0; i < n*l.ch; i++ {
		plane := x.Data()[i*inH*inW : (i+1)*inH*inW]
		ker := w[i%l.ch*l.kh*l.kw:]
		out := y.Data()[i*outH*outW:]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float32
				for ky := 0; ky < l.kh; ky++ {
					for kx := 0; kx < l.kw; kx++ {
						iy, ix := oy*l.stride-l.pad+ky, ox*l.stride-l.pad+kx
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							s += float32(plane[iy*inW+ix] * ker[ky*l.kw+kx])
						}
					}
				}
				out[oy*outW+ox] = s
			}
		}
	}
	return y
}

// refDense is Dense.Forward as x·Wᵀ, one ordered dot per output, then the
// bias.
func refDense(d *Dense, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	y := tensor.New(n, d.out)
	w, b := d.Weight.W.Data(), d.Bias.W.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < d.out; j++ {
			var s float32
			for q := 0; q < d.in; q++ {
				s += float32(x.Data()[i*d.in+q] * w[j*d.in+q])
			}
			y.Data()[i*d.out+j] = s + b[j]
		}
	}
	return y
}

// refBatchNormEval is BatchNorm's eval-mode expression v*scale + shift.
func refBatchNormEval(bn *BatchNorm, x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	hw := x.Dim(2) * x.Dim(3)
	for i := range y.Data() {
		scale, shift := bn.evalAffine(i / hw % bn.ch)
		y.Data()[i] = float32(y.Data()[i]*scale) + shift
	}
	return y
}

// refForward is the eval-mode forward of a layer graph on the reference
// loops; the layers with no sum of their own (ReLU6, pooling) run as they
// are.
func refForward(l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			x = refForward(c, x)
		}
		return x
	case *Residual:
		y := refForward(v.Body, x)
		for i, s := range x.Data() {
			y.Data()[i] += s
		}
		return y
	case *Conv2D:
		y, _ := refConv(v, x)
		return y
	case *DepthwiseConv2D:
		return refDepthwise(v, x)
	case *Dense:
		return refDense(v, x)
	case *BatchNorm:
		return refBatchNormEval(v, x)
	default:
		return l.Forward(x, false)
	}
}

// refLayerInput is a batch of normal values with a run of +0 and -0 in
// every image, and one image (the last, when there are several) of signed
// zeros only.
func refLayerInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 1)
	negZero := float32(math.Copysign(0, -1))
	img := x.Len() / shape[0]
	for i := range x.Data() {
		if i%img < img/4 || shape[0] > 1 && i >= (shape[0]-1)*img {
			x.Data()[i] = []float32{0, negZero}[rng.Intn(2)]
		}
	}
	return x
}

// TestLayerForwardMatchesReference diffs the forward of Conv2D,
// DepthwiseConv2D and Dense in both modes, and Conv2D's weight gradient,
// against the scalar reference bit for bit, on the vector kernels this
// machine dispatches and on the Go kernels. The shapes cover 1×1 and 3×3
// kernels at stride 1 and 2 with and without padding, odd planes, a 4×16
// vector tile with remainders on both sides, and batches of one and three.
func TestLayerForwardMatchesReference(t *testing.T) {
	for _, path := range []string{"dispatched", "portable"} {
		run := func(f func()) { f() }
		if path == "portable" {
			run = portable
		}
		run(func() {
			rng := rand.New(rand.NewSource(71))
			for _, n := range []int{1, 3} {
				for _, g := range [][3]int{{1, 1, 0}, {1, 2, 0}, {3, 1, 0}, {3, 1, 1}, {3, 2, 0}, {3, 2, 1}} {
					k, stride, pad := g[0], g[1], g[2]
					for _, hw := range [][2]int{{7, 5}, {5, 9}, {3, 3}} {
						name := fmt.Sprintf("%s n %d %dx%d stride %d pad %d input %dx%d", path, n, k, k, stride, pad, hw[0], hw[1])
						for _, train := range []bool{false, true} {
							x := refLayerInput(rng, n, 3, hw[0], hw[1])
							c := NewConv2D(rng, "c", 3, 6, k, k, stride, pad)
							want, cols := refConv(c, x)
							sameBits32(t, fmt.Sprintf("conv %s train %v", name, train), c.Forward(x, train).Data(), want.Data())
							dy := refLayerInput(rng, want.Shape()...)
							c.Weight.G.Zero()
							c.Backward(dy)
							sameBits32(t, fmt.Sprintf("conv dW %s train %v", name, train), c.Weight.G.Data(), refConvGrad(c, cols, dy))

							dw := NewDepthwiseConv2D(rng, "dw", 5, k, stride, pad)
							xd := refLayerInput(rng, n, 5, hw[0], hw[1])
							sameBits32(t, fmt.Sprintf("depthwise %s train %v", name, train), dw.Forward(xd, train).Data(), refDepthwise(dw, xd).Data())
						}
					}
				}
				for _, train := range []bool{false, true} {
					d := NewDense(rng, "d", 7, 5)
					d.Bias.W.RandNormal(rng, 0.5)
					x := refLayerInput(rng, n, 7)
					sameBits32(t, fmt.Sprintf("%s dense n %d train %v", path, n, train), d.Forward(x, train).Data(), refDense(d, x).Data())
				}
			}
			// Wide enough for whole vector tiles: 9 output channels over
			// 6×6 = 36 pixels leave a channel and a pixel remainder.
			x := refLayerInput(rng, 2, 4, 6, 6)
			for _, k := range []int{1, 3} {
				c := NewConv2D(rng, "c", 4, 9, k, k, 1, k/2)
				want, cols := refConv(c, x)
				sameBits32(t, fmt.Sprintf("%s conv tiles %dx%d", path, k, k), c.Forward(x, true).Data(), want.Data())
				dy := refLayerInput(rng, want.Shape()...)
				c.Weight.G.Zero()
				c.Backward(dy)
				sameBits32(t, fmt.Sprintf("%s conv tiles dW %dx%d", path, k, k), c.Weight.G.Data(), refConvGrad(c, cols, dy))
			}
		})
	}
}
