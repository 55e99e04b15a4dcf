package nn

import "repro/internal/tensor"

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential creates a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer, propagating in reverse order.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// backwardParams is Backward for a caller that discards the input gradient:
// a first layer that is a Conv2D adds its weight gradient and computes no
// input gradient (the column GEMM and Col2Im of every image).
func (s *Sequential) backwardParams(dy *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i >= 1; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if c, ok := s.Layers[0].(*Conv2D); ok {
		c.backward(dy, false)
		return
	}
	s.Layers[0].Backward(dy)
}

// Params implements Layer, concatenating all child parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Residual wraps a body with an identity skip connection: y = x + body(x).
// The body must preserve the input shape.
type Residual struct {
	Body Layer

	y *tensor.Tensor // training step buffer (see the package comment)
}

// NewResidual wraps body in an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = tensor.Reuse(r.y, x.Shape()...)
	r.y.Copy(r.Body.Forward(x, train))
	r.y.AddScaled(1, x)
	return r.y
}

// Backward implements Layer: gradient flows through both the body and the
// skip path.
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := r.Body.Backward(dy)
	dx.AddScaled(1, dy) // in the body's buffer, which nothing reads after this
	return dx
}
