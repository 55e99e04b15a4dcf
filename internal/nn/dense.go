package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer over (N, in) batches: y = x·Wᵀ + b, then
// max(y,0) when ReLU is set. Weights have shape (out, in).
type Dense struct {
	Weight, Bias *Param
	ReLU         bool
	in, out      int

	// training step buffers (see the package comment)
	x, y *tensor.Tensor // forward caches: the input, and the output the rectifier masks by
	dyr  *tensor.Tensor // the output gradient through the rectifier
	dyT  []float32
	dw   *tensor.Tensor // the weight gradient before it is added to Weight's
	dx   *tensor.Tensor
}

// NewDense creates a dense layer with He-initialized weights and zero bias.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	d := &Dense{
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
		in:     in,
		out:    out,
	}
	HeInit(rng, d.Weight.W, in)
	return d
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Forward implements Layer for input (N, in).
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 2, "Dense")
	if x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: Dense %s: input width %d want %d", d.Weight.Name, x.Dim(1), d.in))
	}
	d.x = x
	d.y = denseInfer(d.y, x, d)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	checkRank(dy, 2, "Dense.Backward")
	n := dy.Dim(0)
	if d.ReLU {
		// The rectifier passes the gradient only where the output is
		// positive.
		d.dyr = tensor.Reuse(d.dyr, dy.Shape()...)
		d.dyr.Copy(dy)
		dy = d.dyr
		for i, o := range d.y.Data() {
			if o <= 0 {
				dy.Data()[i] = 0
			}
		}
	}
	// dW (out,in) = dYᵀ (out,N) · X (N,in)
	d.dyT = resize(d.dyT, d.out*n)
	transpose(d.dyT, dy.Data(), n, d.out)
	d.dw = tensor.Reuse(d.dw, d.out, d.in)
	gemm(d.dw.Data(), d.dyT, d.x.Data(), d.out, d.in, n)
	d.Weight.Grad().AddScaled(1, d.dw)
	// db = column sums of dY
	db := d.Bias.Grad().Data()
	for i := 0; i < n; i++ {
		row := dy.Data()[i*d.out : (i+1)*d.out]
		for j, v := range row {
			db[j] += v
		}
	}
	// dX (N,in) = dY (N,out) · W (out,in)
	d.dx = tensor.Reuse(d.dx, n, d.in)
	gemm(d.dx.Data(), dy.Data(), d.Weight.W.Data(), n, d.in, d.out)
	return d.dx
}
