package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The scalar reference of the float32 forward arithmetic and of the
// convolution and matrix products of backward. The layers' Forward and the
// inference plan run the same kernels (gemmBN, im2colPlanar, the depthwise
// op, denseInfer), Conv2D's and Dense's Backward run gemmBN too and
// DepthwiseConv2D's the depthwise op, so none can check another; this file
// keeps the loops they replaced — a row-major im2col with an ordered dot per
// output, the per-plane depthwise loop, a dot-product dense layer,
// BatchNorm's eval expression, one ordered sum per gradient entry and the
// depthwise per-output scatter — as the independent definition all are
// diffed against. Every product is
// rounded before it is added, as the kernels round theirs.

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

// refConvInputGrad is Conv2D's input gradient: per image, output pixel and
// tap, the column gradient Σ_o dY·W ordered over output channels from +0,
// scattered into the image in (oy, ox, c, ky, kx) order.
func refConvInputGrad(c *Conv2D, x, dy *tensor.Tensor) []float32 {
	d := c.dims
	d.InH, d.InW = x.Dim(2), x.Dim(3)
	outH, outW := d.OutH(), d.OutW()
	p, k := outH*outW, d.InC*d.KH*d.KW
	imgIn := d.InC * d.InH * d.InW
	dx := make([]float32, x.Len())
	w := c.Weight.W.Data()
	for i := 0; i < x.Dim(0); i++ {
		dyi := dy.Data()[i*c.outC*p:]
		img := dx[i*imgIn : (i+1)*imgIn]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				pi, j := oy*outW+ox, 0
				for ch := 0; ch < d.InC; ch++ {
					for ky := 0; ky < d.KH; ky++ {
						for kx := 0; kx < d.KW; kx++ {
							var s float32
							for o := 0; o < c.outC; o++ {
								s += float32(dyi[o*p+pi] * w[o*k+j])
							}
							j++
							iy, ix := oy*d.StrideH-d.PadH+ky, ox*d.StrideW-d.PadW+kx
							if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
								img[(ch*d.InH+iy)*d.InW+ix] += s
							}
						}
					}
				}
			}
		}
	}
	return dx
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

// refDepthwiseGrads is DepthwiseConv2D's gradients as the per-output
// scatter: for each image, channel and output pixel in order, dy times each
// tap inside the input added to that tap's weight gradient and to the input
// gradient under it. The weight gradient is summed per image from +0, then
// the images added in order.
func refDepthwiseGrads(l *DepthwiseConv2D, x, dy *tensor.Tensor) (dw, dx []float32) {
	n, inH, inW := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := dy.Dim(2), dy.Dim(3)
	kk := l.kh * l.kw
	w := l.Weight.W.Data()
	dw = make([]float32, l.ch*kk)
	dx = make([]float32, x.Len())
	for i := 0; i < n; i++ {
		dwi := make([]float32, l.ch*kk)
		for c := 0; c < l.ch; c++ {
			plane := x.Data()[(i*l.ch+c)*inH*inW:]
			dplane := dx[(i*l.ch+c)*inH*inW:]
			g := dy.Data()[(i*l.ch+c)*outH*outW:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					gv := g[oy*outW+ox]
					for ky := 0; ky < l.kh; ky++ {
						for kx := 0; kx < l.kw; kx++ {
							iy, ix := oy*l.stride-l.pad+ky, ox*l.stride-l.pad+kx
							if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
								dwi[c*kk+ky*l.kw+kx] += float32(gv * plane[iy*inW+ix])
								dplane[iy*inW+ix] += float32(gv * w[c*kk+ky*l.kw+kx])
							}
						}
					}
				}
			}
		}
		for j, v := range dwi {
			dw[j] += v
		}
	}
	return dw, dx
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

// refDenseGrads is Dense's weight gradient from zero, Σ_n dY·X ordered over
// the batch from +0, and its input gradient, Σ_o dY·W ordered over the
// outputs from +0.
func refDenseGrads(d *Dense, x, dy *tensor.Tensor) (dw, dx []float32) {
	n := x.Dim(0)
	w, xs, g := d.Weight.W.Data(), x.Data(), dy.Data()
	dw = make([]float32, d.out*d.in)
	for o := 0; o < d.out; o++ {
		for q := 0; q < d.in; q++ {
			var s float32
			for i := 0; i < n; i++ {
				s += float32(g[i*d.out+o] * xs[i*d.in+q])
			}
			dw[o*d.in+q] = s
		}
	}
	dx = make([]float32, n*d.in)
	for i := 0; i < n; i++ {
		for q := 0; q < d.in; q++ {
			var s float32
			for o := 0; o < d.out; o++ {
				s += float32(g[i*d.out+o] * w[o*d.in+q])
			}
			dx[i*d.in+q] = s
		}
	}
	return dw, dx
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
// DepthwiseConv2D and Dense in both modes, and the weight and input gradients
// of all three, against the scalar reference bit for bit, on the vector
// kernels this machine dispatches and on the Go kernels. The shapes cover
// 1×1 and 3×3 kernels at stride 1 and 2 with and without padding (and a
// padding wider than the kernel), odd and even planes, so that at stride 2
// inH+2·pad-k takes both parities, 4×16 vector tiles with remainders on both
// sides in each of the four products, and batches of one, three and five;
// every input and output gradient holds signed zeros.
func TestLayerForwardMatchesReference(t *testing.T) {
	for _, path := range []string{"dispatched", "portable"} {
		run := func(f func()) { f() }
		if path == "portable" {
			run = portable
		}
		run(func() {
			rng := rand.New(rand.NewSource(71))
			for _, n := range []int{1, 3} {
				for _, g := range [][3]int{{1, 1, 0}, {1, 1, 1}, {1, 2, 0}, {1, 2, 1}, {3, 1, 0}, {3, 1, 1}, {3, 2, 0}, {3, 2, 1}, {3, 1, 3}} {
					k, stride, pad := g[0], g[1], g[2]
					for _, hw := range [][2]int{{7, 5}, {5, 9}, {3, 3}, {6, 4}} {
						name := fmt.Sprintf("%s n %d %dx%d stride %d pad %d input %dx%d", path, n, k, k, stride, pad, hw[0], hw[1])
						for _, train := range []bool{false, true} {
							x := refLayerInput(rng, n, 3, hw[0], hw[1])
							c := NewConv2D(rng, "c", 3, 6, k, k, stride, pad)
							want, cols := refConv(c, x)
							sameBits32(t, fmt.Sprintf("conv %s train %v", name, train), c.Forward(x, train).Data(), want.Data())
							dy := refLayerInput(rng, want.Shape()...)
							c.Weight.G.Zero()
							dx := c.Backward(dy)
							sameBits32(t, fmt.Sprintf("conv dW %s train %v", name, train), c.Weight.G.Data(), refConvGrad(c, cols, dy))
							sameBits32(t, fmt.Sprintf("conv dx %s train %v", name, train), dx.Data(), refConvInputGrad(c, x, dy))

							dw := NewDepthwiseConv2D(rng, "dw", 5, k, stride, pad)
							xd := refLayerInput(rng, n, 5, hw[0], hw[1])
							yd := refDepthwise(dw, xd)
							sameBits32(t, fmt.Sprintf("depthwise %s train %v", name, train), dw.Forward(xd, train).Data(), yd.Data())
							dyd := refLayerInput(rng, yd.Shape()...)
							wantDW, wantDX := refDepthwiseGrads(dw, xd, dyd)
							dw.Weight.G.Zero()
							dxd := dw.Backward(dyd)
							sameBits32(t, fmt.Sprintf("depthwise dW %s train %v", name, train), dw.Weight.G.Data(), wantDW)
							sameBits32(t, fmt.Sprintf("depthwise dx %s train %v", name, train), dxd.Data(), wantDX)
						}
					}
				}
				for _, train := range []bool{false, true} {
					checkDense(t, fmt.Sprintf("%s dense n %d train %v", path, n, train), rng, n, 7, 5, train)
				}
			}
			// 9 outputs over 20 inputs on a batch of 5: whole vector tiles
			// and remainders in both of Dense's gradients.
			checkDense(t, path+" dense tiles", rng, 5, 20, 9, true)
			// Wide enough for whole vector tiles: 9 output channels over
			// 6×6 = 36 pixels leave a channel and a pixel remainder.
			x := refLayerInput(rng, 2, 4, 6, 6)
			for _, k := range []int{1, 3} {
				c := NewConv2D(rng, "c", 4, 9, k, k, 1, k/2)
				want, cols := refConv(c, x)
				sameBits32(t, fmt.Sprintf("%s conv tiles %dx%d", path, k, k), c.Forward(x, true).Data(), want.Data())
				dy := refLayerInput(rng, want.Shape()...)
				c.Weight.G.Zero()
				dx := c.Backward(dy)
				sameBits32(t, fmt.Sprintf("%s conv tiles dW %dx%d", path, k, k), c.Weight.G.Data(), refConvGrad(c, cols, dy))
				sameBits32(t, fmt.Sprintf("%s conv tiles dx %dx%d", path, k, k), dx.Data(), refConvInputGrad(c, x, dy))
			}
		})
	}
}

// checkDense diffs a fresh in→out Dense layer's Forward on a batch of n, and
// the weight and input gradients of its Backward, against the reference.
func checkDense(t *testing.T, name string, rng *rand.Rand, n, in, out int, train bool) {
	t.Helper()
	d := NewDense(rng, "d", in, out)
	d.Bias.W.RandNormal(rng, 0.5)
	x := refLayerInput(rng, n, in)
	sameBits32(t, name, d.Forward(x, train).Data(), refDense(d, x).Data())
	dy := refLayerInput(rng, n, out)
	wantDW, wantDX := refDenseGrads(d, x, dy)
	d.Weight.G.Zero()
	dx := d.Backward(dy)
	sameBits32(t, name+" dW", d.Weight.G.Data(), wantDW)
	sameBits32(t, name+" dx", dx.Data(), wantDX)
}
