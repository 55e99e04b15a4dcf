package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW batches. Weights have shape
// (outC, inC*KH*KW); there is no bias term because every convolution in the
// model is followed by BatchNorm, which supplies the shift.
type Conv2D struct {
	Weight *Param
	dims   tensor.ConvDims
	outC   int

	// forward caches
	x     *tensor.Tensor
	panel []float32 // the batch's im2colPlanar panels, one an image; unused by a pointwise layer
}

// NewConv2D creates a convolution layer. Weights are He-initialized from rng.
func NewConv2D(rng *rand.Rand, name string, inC, outC, kh, kw, stride, pad int) *Conv2D {
	d := tensor.ConvDims{InC: inC, KH: kh, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
	c := &Conv2D{Weight: newParam(name+".weight", outC, inC*kh*kw), dims: d, outC: outC}
	HeInit(rng, c.Weight.W, inC*kh*kw)
	return c
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight} }

// Forward implements Layer for input (N, inC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "Conv2D")
	n := x.Dim(0)
	d := c.dims
	if x.Dim(1) != d.InC {
		panic(fmt.Sprintf("nn: Conv2D %s: input channels %d want %d", c.Weight.Name, x.Dim(1), d.InC))
	}
	d.InH, d.InW = x.Dim(2), x.Dim(3)
	outH, outW := d.OutH(), d.OutW()
	p := outH * outW
	k := d.InC * d.KH * d.KW

	c.x = x
	c.dims = d
	if !pointwise(d) && len(c.panel) < n*k*p {
		c.panel = make([]float32, n*k*p)
	}

	y := tensor.New(n, c.outC, outH, outW)
	imgIn := d.InC * d.InH * d.InW
	imgOut := c.outC * p
	id := identityAffine(c.outC)
	parallelFor(n, func(i int) {
		a := c.planes(i)
		if !pointwise(d) {
			im2colPlanar(a, x.Data()[i*imgIn:(i+1)*imgIn], d)
		}
		gemmBN(y.Data()[i*imgOut:(i+1)*imgOut], c.Weight.W.Data(), a, c.outC, p, k, id.scale, id.shift, false)
	})
	return y
}

// planes is image i's input as gemmBN reads it: a pointwise layer's input
// image in place, any other's im2colPlanar panel, (k, p) row-major.
func (c *Conv2D) planes(i int) []float32 {
	d := c.dims
	if pointwise(d) {
		n := d.InC * d.InH * d.InW
		return c.x.Data()[i*n : (i+1)*n]
	}
	n := d.InC * d.KH * d.KW * d.OutH() * d.OutW()
	return c.panel[i*n : (i+1)*n]
}

// Backward implements Layer. dy has shape (N, outC, outH, outW).
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	checkRank(dy, 4, "Conv2D.Backward")
	n := dy.Dim(0)
	d := c.dims
	outH, outW := d.OutH(), d.OutW()
	p := outH * outW
	k := d.InC * d.KH * d.KW
	imgIn := d.InC * d.InH * d.InW
	imgOut := c.outC * p

	dx := tensor.New(n, d.InC, d.InH, d.InW)
	dws := make([]*tensor.Tensor, n)
	parallelFor(n, func(i int) {
		dyi := tensor.NewFrom(dy.Data()[i*imgOut:(i+1)*imgOut], c.outC, p)
		// dW_i (outC,k) = dY (outC,p) · panelᵀ (p,k)
		dws[i] = tensor.MatMulTB(dyi, tensor.NewFrom(c.planes(i), k, p))
		// dcol (p,k) = dYᵀ (p,outC) · W (outC,k)
		dcol := tensor.MatMulTA(dyi, c.Weight.W)
		tensor.Col2Im(dx.Data()[i*imgIn:(i+1)*imgIn], dcol.Data(), d)
	})
	for _, dw := range dws {
		c.Weight.G.AddScaled(1, dw)
	}
	return dx
}

// DepthwiseConv2D applies one KHxKW filter per channel (groups == channels),
// the core operator of MobileNet-style blocks. Weights have shape (C, KH*KW).
type DepthwiseConv2D struct {
	Weight *Param
	ch     int
	kh, kw int
	stride int
	pad    int

	x    *tensor.Tensor
	inH  int
	inW  int
	outH int
	outW int
}

// NewDepthwiseConv2D creates a depthwise convolution with He init.
func NewDepthwiseConv2D(rng *rand.Rand, name string, ch, k, stride, pad int) *DepthwiseConv2D {
	l := &DepthwiseConv2D{Weight: newParam(name+".weight", ch, k*k), ch: ch, kh: k, kw: k, stride: stride, pad: pad}
	HeInit(rng, l.Weight.W, k*k)
	return l
}

// Params implements Layer.
func (l *DepthwiseConv2D) Params() []*Param { return []*Param{l.Weight} }

// Forward implements Layer for input (N, C, H, W).
func (l *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "DepthwiseConv2D")
	if x.Dim(1) != l.ch {
		panic(fmt.Sprintf("nn: DepthwiseConv2D %s: channels %d want %d", l.Weight.Name, x.Dim(1), l.ch))
	}
	n := x.Dim(0)
	l.x = x
	l.inH, l.inW = x.Dim(2), x.Dim(3)
	l.outH = (l.inH+2*l.pad-l.kh)/l.stride + 1
	l.outW = (l.inW+2*l.pad-l.kw)/l.stride + 1

	y := tensor.New(n, l.ch, l.outH, l.outW)
	imgIn := l.ch * l.inH * l.inW
	imgOut := l.ch * l.outH * l.outW
	op := &planDepthwise{l: l, bnAffine: identityAffine(l.ch)}
	parallelFor(n, func(i int) {
		// A plan of its own per image: the vector kernel's load masks are
		// the only scratch it keeps.
		op.run(new(inferPlan), y.Data()[i*imgOut:(i+1)*imgOut], x.Data()[i*imgIn:(i+1)*imgIn], l.ch, l.inH, l.inW)
	})
	return y
}

// Backward implements Layer.
func (l *DepthwiseConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: DepthwiseConv2D.Backward before Forward")
	}
	n := dy.Dim(0)
	imgIn := l.ch * l.inH * l.inW
	imgOut := l.ch * l.outH * l.outW
	dx := tensor.New(n, l.ch, l.inH, l.inW)
	w := l.Weight.W.Data()
	dws := make([]*tensor.Tensor, n)
	parallelFor(n, func(i int) {
		dwi := tensor.New(l.ch, l.kh*l.kw)
		src := l.x.Data()[i*imgIn:]
		g := dy.Data()[i*imgOut:]
		dsrc := dx.Data()[i*imgIn:]
		for c := 0; c < l.ch; c++ {
			plane := src[c*l.inH*l.inW : (c+1)*l.inH*l.inW]
			gplane := g[c*l.outH*l.outW : (c+1)*l.outH*l.outW]
			dplane := dsrc[c*l.inH*l.inW : (c+1)*l.inH*l.inW]
			ker := w[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
			dker := dwi.Data()[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
			idx := 0
			for oy := 0; oy < l.outH; oy++ {
				iy0 := oy*l.stride - l.pad
				for ox := 0; ox < l.outW; ox++ {
					ix0 := ox*l.stride - l.pad
					gv := gplane[idx]
					idx++
					if gv == 0 {
						continue
					}
					for ky := 0; ky < l.kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= l.inH {
							continue
						}
						for kx := 0; kx < l.kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= l.inW {
								continue
							}
							dker[ky*l.kw+kx] += float32(gv * plane[iy*l.inW+ix])
							dplane[iy*l.inW+ix] += float32(gv * ker[ky*l.kw+kx])
						}
					}
				}
			}
		}
		dws[i] = dwi
	})
	for _, dw := range dws {
		l.Weight.G.AddScaled(1, dw)
	}
	return dx
}
