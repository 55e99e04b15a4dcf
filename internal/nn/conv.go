package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW batches. Weights have shape
// (outC, inC*KH*KW); there is no bias term because every convolution in the
// model is followed by BatchNorm, which supplies the shift.
type Conv2D struct {
	Weight *Param
	dims   tensor.ConvDims
	outC   int

	// training step buffers (see the package comment)
	x      *tensor.Tensor // forward cache: the input
	panel  []float32      // forward cache: the batch's im2colPlanar panels, one an image; unused by a pointwise layer
	y, dx  *tensor.Tensor
	wt     []float32   // Backward's transposed weights, (k, outC)
	images []convImage // Backward's per-image transients
}

// convImage is one image's share of Conv2D.Backward: its transposed panel,
// then its input gradient before Col2Im, and its weight-gradient partial.
type convImage struct {
	buf []float32
	dw  *tensor.Tensor
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

	y := tensor.Reuse(c.y, n, c.outC, outH, outW)
	c.y = y
	imgIn := d.InC * d.InH * d.InW
	imgOut := c.outC * p
	parallelFor(n, func(i int) {
		a := c.planes(i)
		if !pointwise(d) {
			im2colPlanar(a, x.Data()[i*imgIn:(i+1)*imgIn], d)
		}
		gemm(y.Data()[i*imgOut:(i+1)*imgOut], c.Weight.W.Data(), a, c.outC, p, k)
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
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backward is Backward, computing the input gradient only when inputGrad is
// set; without it the result is nil and only the weight gradient is added.
// A model's first layer needs no input gradient: nothing reads it.
func (c *Conv2D) backward(dy *tensor.Tensor, inputGrad bool) *tensor.Tensor {
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

	var dx *tensor.Tensor
	if inputGrad {
		dx = tensor.Reuse(c.dx, n, d.InC, d.InH, d.InW)
		c.dx = dx
		c.wt = resize(c.wt, k*c.outC)
		transpose(c.wt, c.Weight.W.Data(), c.outC, k)
	}
	c.images = resize(c.images, n)
	parallelFor(n, func(i int) {
		im := &c.images[i]
		dyi := dy.Data()[i*imgOut : (i+1)*imgOut]
		// dW_i (outC,k) = dY (outC,p) · panelᵀ (p,k)
		im.buf = resize(im.buf, p*k)
		transpose(im.buf, c.planes(i), k, p)
		im.dw = tensor.Reuse(im.dw, c.outC, k)
		gemm(im.dw.Data(), dyi, im.buf, c.outC, k, p)
		if !inputGrad {
			return
		}
		// dcol (k,p) = Wᵀ (k,outC) · dY (outC,p), in im2colPlanar's layout:
		// a pointwise layer's input gradient as it stands, any other's
		// scattered back through Col2Im from buf, whose panelᵀ is spent,
		// onto a cleared image.
		dxi := dx.Data()[i*imgIn : (i+1)*imgIn]
		if pointwise(d) {
			gemm(dxi, c.wt, dyi, k, p, c.outC)
			return
		}
		gemm(im.buf, c.wt, dyi, k, p, c.outC)
		clear(dxi)
		tensor.Col2Im(dxi, im.buf, d)
	})
	g := c.Weight.Grad()
	for i := range n {
		g.AddScaled(1, c.images[i].dw)
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

	// training step buffers (see the package comment)
	x          *tensor.Tensor // forward cache: the input
	inH, inW   int
	outH, outW int
	y, dx      *tensor.Tensor
	fwd, dxOp  *planDepthwise // Forward's op; Backward's input-gradient correlation over turned
	turned     *tensor.Tensor // the kernels turned 180°, (ch, kh·kw)
	images     []dwImage      // per-image scratch and Backward transients
}

// dwImage is one image's share of a DepthwiseConv2D step: the scratch its
// depthwise ops run in, and Backward's zero-stuffed output gradient with the
// correlation that reads it as kernels and the weight-gradient partial that
// correlation writes.
type dwImage struct {
	sc   Scratch
	grid *tensor.Tensor
	dwOp *planDepthwise
	dw   *tensor.Tensor
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

	y := tensor.Reuse(l.y, n, l.ch, l.outH, l.outW)
	l.y = y
	imgIn := l.ch * l.inH * l.inW
	imgOut := l.ch * l.outH * l.outW
	if l.fwd == nil {
		l.fwd = &planDepthwise{l: l, epilogue: epilogue{fixed: identityAffine(l.ch)}}
	}
	l.images = resize(l.images, n)
	parallelFor(n, func(i int) {
		// A scratch of its own per image: the vector kernel's load masks are
		// all it keeps there.
		l.fwd.run(&l.images[i].sc, y.Data()[i*imgOut:(i+1)*imgOut], x.Data()[i*imgIn:(i+1)*imgIn], l.ch, l.inH, l.inW)
	})
	return y
}

// Backward implements Layer. Both gradients are depthwise correlations, so
// they run on the forward's op with the identity epilogue. dy is stuffed with
// zeros onto the input's pixel pitch: one (inH+2·pad-kh+1) × (inW+2·pad-kw+1)
// grid a channel, output (oy, ox) at (oy·stride, ox·stride). dx is the grid
// correlated at stride 1 with each kernel turned 180°, at padding kh-1-pad
// (negative when the padding is wider than the kernel, which only crops); dW
// is the cached input at the layer's own padding correlated with the grid as
// the kernel. Either sum visits its terms in the output order a per-output
// scatter adds them, and a stuffed zero times a finite operand adds ±0 to a
// sum that started from +0, which changes nothing.
func (l *DepthwiseConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: DepthwiseConv2D.Backward before Forward")
	}
	n := dy.Dim(0)
	gh, gw := l.inH+2*l.pad-l.kh+1, l.inW+2*l.pad-l.kw+1
	imgIn, imgOut := l.ch*l.inH*l.inW, l.ch*l.outH*l.outW
	kk := l.kh * l.kw
	if l.turned == nil {
		l.turned = tensor.New(l.ch, kk)
		l.dxOp = correlation(l.turned, l.kh, l.kw, l.kh-1-l.pad)
	}
	turned := l.turned.Data()
	copy(turned, l.Weight.W.Data())
	for c := 0; c < l.ch; c++ {
		slices.Reverse(turned[c*kk : (c+1)*kk])
	}
	dx := tensor.Reuse(l.dx, n, l.ch, l.inH, l.inW)
	l.dx = dx
	l.images = resize(l.images, n)
	parallelFor(n, func(i int) {
		im := &l.images[i]
		if im.dwOp == nil || im.dwOp.l.kh != gh || im.dwOp.l.kw != gw {
			im.grid = tensor.New(l.ch, gh*gw)
			im.dwOp = correlation(im.grid, gh, gw, l.pad)
		}
		grid := im.grid.Data()
		clear(grid)
		g := dy.Data()[i*imgOut:]
		for row := 0; row < l.ch*l.outH; row++ {
			dst := grid[(row/l.outH*gh+row%l.outH*l.stride)*gw:]
			for ox, v := range g[row*l.outW : (row+1)*l.outW] {
				dst[ox*l.stride] = v
			}
		}
		l.dxOp.run(&im.sc, dx.Data()[i*imgIn:(i+1)*imgIn], grid, l.ch, gh, gw)
		im.dw = tensor.Reuse(im.dw, l.ch, kk)
		im.dwOp.run(&im.sc, im.dw.Data(), l.x.Data()[i*imgIn:(i+1)*imgIn], l.ch, l.inH, l.inW)
	})
	g := l.Weight.Grad()
	for i := range n {
		g.AddScaled(1, l.images[i].dw)
	}
	return dx
}

// correlation is the depthwise op at stride 1 with the identity epilogue over
// the kernels w, (ch, kh·kw): Backward's two gradients.
func correlation(w *tensor.Tensor, kh, kw, pad int) *planDepthwise {
	ch := w.Dim(0)
	return &planDepthwise{l: &DepthwiseConv2D{Weight: &Param{W: w}, ch: ch, kh: kh, kw: kw, stride: 1, pad: pad}, epilogue: epilogue{fixed: identityAffine(ch)}}
}
