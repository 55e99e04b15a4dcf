package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer over (N, in) batches: y = x·Wᵀ + b.
// Weights have shape (out, in).
type Dense struct {
	Weight, Bias *Param
	in, out      int

	x *tensor.Tensor
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
	return denseInfer(nil, x, d, false)
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	checkRank(dy, 2, "Dense.Backward")
	n := dy.Dim(0)
	// dW (out,in) = dYᵀ (out,N) · X (N,in)
	dyT := make([]float32, d.out*n)
	transpose(dyT, dy.Data(), n, d.out)
	dw := tensor.New(d.out, d.in)
	gemm(dw.Data(), dyT, d.x.Data(), d.out, d.in, n)
	d.Weight.G.AddScaled(1, dw)
	// db = column sums of dY
	db := d.Bias.G.Data()
	for i := 0; i < n; i++ {
		row := dy.Data()[i*d.out : (i+1)*d.out]
		for j, v := range row {
			db[j] += v
		}
	}
	// dX (N,in) = dY (N,out) · W (out,in)
	dx := tensor.New(n, d.in)
	gemm(dx.Data(), dy.Data(), d.Weight.W.Data(), n, d.in, d.out)
	return dx
}
