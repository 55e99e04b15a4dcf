package nn

import (
	"repro/internal/tensor"
)

// ReLU6 is the clipped rectifier min(max(x,0),6) used throughout MobileNetV2.
type ReLU6 struct {
	mask []bool // true where the gradient passes (0 < x < 6)
}

// NewReLU6 returns a ReLU6 activation layer.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Params implements Layer.
func (r *ReLU6) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape()...)
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	for i, v := range x.Data() {
		switch {
		case v <= 0:
			y.Data()[i] = 0
			r.mask[i] = false
		case v >= 6:
			y.Data()[i] = 6
			r.mask[i] = false
		default:
			y.Data()[i] = v
			r.mask[i] = true
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU6) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(r.mask) != dy.Len() {
		panic("nn: ReLU6.Backward before Forward")
	}
	dx := tensor.New(dy.Shape()...)
	for i, v := range dy.Data() {
		if r.mask[i] {
			dx.Data()[i] = v
		}
	}
	return dx
}

// ReLU is the standard rectifier, used on the embedding layer.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape()...)
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	for i, v := range x.Data() {
		if v > 0 {
			y.Data()[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(r.mask) != dy.Len() {
		panic("nn: ReLU.Backward before Forward")
	}
	dx := tensor.New(dy.Shape()...)
	for i, v := range dy.Data() {
		if r.mask[i] {
			dx.Data()[i] = v
		}
	}
	return dx
}

// GlobalAvgPool reduces (N,C,H,W) to (N,C) by spatial averaging.
type GlobalAvgPool struct {
	h, w int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer: the plan's pool over the batch's n·c planes,
// which lie one after the other as one image's do.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "GlobalAvgPool")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.h, g.w = h, w
	y := tensor.New(n, c)
	planPool{}.run(nil, y.Data(), x.Data(), n*c, h, w)
	return y
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank(dy, 2, "GlobalAvgPool.Backward")
	n, c := dy.Dim(0), dy.Dim(1)
	hw := g.h * g.w
	inv := 1 / float32(hw)
	dx := tensor.New(n, c, g.h, g.w)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			gv := dy.Data()[i*c+j] * inv
			dst := dx.Data()[(i*c+j)*hw : (i*c+j+1)*hw]
			for k := range dst {
				dst[k] = gv
			}
		}
	}
	return dx
}
