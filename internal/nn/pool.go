package nn

import (
	"repro/internal/tensor"
)

// GlobalAvgPool reduces (N,C,H,W) to (N,C) by spatial averaging.
type GlobalAvgPool struct {
	h, w  int
	y, dx *tensor.Tensor // training step buffers (see the package comment)
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
	g.y = tensor.Reuse(g.y, n, c)
	planPool{}.run(nil, g.y.Data(), x.Data(), n*c, h, w)
	return g.y
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	checkRank(dy, 2, "GlobalAvgPool.Backward")
	n, c := dy.Dim(0), dy.Dim(1)
	hw := g.h * g.w
	inv := 1 / float32(hw)
	dx := tensor.Reuse(g.dx, n, c, g.h, g.w)
	g.dx = dx
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
