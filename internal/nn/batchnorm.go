package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes each channel over the batch and spatial dimensions of
// an NCHW tensor, with learned scale (gamma) and shift (beta) and running
// statistics for inference. With ReLU6 set it ends in MobileNetV2's clipped
// rectifier min(max(y,0),6), as the fused inference op does.
type BatchNorm struct {
	Gamma, Beta *Param
	ReLU6       bool

	// Running statistics used in eval mode.
	RunningMean []float32
	RunningVar  []float32
	Momentum    float32 // running-stat update rate, typically 0.1
	Eps         float32

	ch int

	// training step buffers (see the package comment): train mode's
	// forward caches, the output and the input gradient
	xhat    *tensor.Tensor
	y       *tensor.Tensor // the output, whose clamped entries stop the gradient
	invStd  []float32
	dx      *tensor.Tensor
	n       int
	hw      int
	trained bool
}

// NewBatchNorm creates a BatchNorm over ch channels with gamma=1, beta=0.
func NewBatchNorm(name string, ch int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       newParam(name+".gamma", ch),
		Beta:        newParam(name+".beta", ch),
		RunningMean: make([]float32, ch),
		RunningVar:  make([]float32, ch),
		Momentum:    0.1,
		Eps:         1e-5,
		ch:          ch,
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer for input (N, C, H, W).
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(x, 4, "BatchNorm")
	if x.Dim(1) != bn.ch {
		panic(fmt.Sprintf("nn: BatchNorm %s: channels %d want %d", bn.Gamma.Name, x.Dim(1), bn.ch))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	y := tensor.Reuse(bn.y, n, bn.ch, h, w)
	bn.y = y
	g := bn.Gamma.W.Data()
	b := bn.Beta.W.Data()

	if !train {
		parallelFor(bn.ch, func(c int) {
			scale, shift := bn.evalAffine(c)
			for i := 0; i < n; i++ {
				off := (i*bn.ch + c) * hw
				src := x.Data()[off : off+hw]
				dst := y.Data()[off : off+hw]
				for j, v := range src {
					dst[j] = bnAct(v, scale, shift, bn.ReLU6)
				}
			}
		})
		bn.trained = false
		return y
	}

	bn.n, bn.hw = n, hw
	bn.xhat = tensor.Reuse(bn.xhat, n, bn.ch, h, w)
	bn.invStd = resize(bn.invStd, bn.ch)
	count := float64(n * hw)
	parallelFor(bn.ch, func(c int) {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			off := (i*bn.ch + c) * hw
			for _, v := range x.Data()[off : off+hw] {
				sum += float64(v)
				sumSq += float64(float64(v) * float64(v))
			}
		}
		mean := sum / count
		variance := sumSq/count - float64(mean*mean)
		if variance < 0 {
			variance = 0
		}
		inv := 1 / math.Sqrt(variance+float64(bn.Eps))
		bn.invStd[c] = float32(inv)
		m32 := float32(mean)
		for i := 0; i < n; i++ {
			off := (i*bn.ch + c) * hw
			src := x.Data()[off : off+hw]
			xh := bn.xhat.Data()[off : off+hw]
			dst := y.Data()[off : off+hw]
			for j, v := range src {
				h := (v - m32) * bn.invStd[c]
				xh[j] = h
				dst[j] = bnAct(h, g[c], b[c], bn.ReLU6)
			}
		}
		bn.RunningMean[c] = float32((1-bn.Momentum)*bn.RunningMean[c]) + float32(bn.Momentum*m32)
		bn.RunningVar[c] = float32((1-bn.Momentum)*bn.RunningVar[c]) + float32(bn.Momentum*float32(variance))
	})
	bn.trained = true
	return y
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx = (gamma*invStd/m) * (m*dy − sum(dy) − xhat*sum(dy*xhat))
//
// With ReLU6 set, dy is first zeroed wherever the output sits on a bound of
// the clamp (a NaN output passes it through); both loops read it that way.
func (bn *BatchNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if bn.xhat == nil || !bn.trained {
		panic("nn: BatchNorm.Backward requires a train-mode Forward")
	}
	n, hw := bn.n, bn.hw
	m := float32(n * hw)
	dx := tensor.Reuse(bn.dx, dy.Shape()...)
	bn.dx = dx
	g := bn.Gamma.W.Data()
	dg := bn.Gamma.Grad().Data()
	db := bn.Beta.Grad().Data()
	parallelFor(bn.ch, func(c int) {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			off := (i*bn.ch + c) * hw
			dyp := dy.Data()[off : off+hw]
			xhp := bn.xhat.Data()[off : off+hw]
			yp := bn.y.Data()[off : off+hw]
			for j, v := range dyp {
				v = bn.clampGrad(v, yp[j])
				sumDy += float64(v)
				sumDyXhat += float64(float64(v) * float64(xhp[j]))
			}
		}
		dg[c] += float32(sumDyXhat)
		db[c] += float32(sumDy)
		k := g[c] * bn.invStd[c] / m
		sDy := float32(sumDy)
		sDyX := float32(sumDyXhat)
		for i := 0; i < n; i++ {
			off := (i*bn.ch + c) * hw
			dyp := dy.Data()[off : off+hw]
			xhp := bn.xhat.Data()[off : off+hw]
			dxp := dx.Data()[off : off+hw]
			yp := bn.y.Data()[off : off+hw]
			for j, v := range dyp {
				v = bn.clampGrad(v, yp[j])
				dxp[j] = k * (float32(m*v) - sDy - float32(xhp[j]*sDyX))
			}
		}
	})
	return dx
}

// clampGrad is the gradient g of output o through the optional ReLU6: +0
// where o is clamped to 0 or 6, g elsewhere.
func (bn *BatchNorm) clampGrad(g, o float32) float32 {
	if bn.ReLU6 && (o <= 0 || o >= 6) {
		return 0
	}
	return g
}
