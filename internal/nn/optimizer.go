package nn

import "math"

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float32
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param][]float32{}}
}

// Step updates every parameter from its gradient and clears nothing; callers
// decide when to ZeroGrad.
func (s *SGD) Step(params []*Param) {
	lr := float32(s.LR)
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = make([]float32, p.W.Len())
			s.velocity[p] = v
		}
		w := p.W.Data()
		g := p.Grad().Data()
		for i := range w {
			grad := g[i] + float32(wd*w[i])
			v[i] = float32(mu*v[i]) + grad
			w[i] -= float32(lr * v[i])
		}
	}
}

// ClipGradNorm scales all gradients so their global L2 norm is at most max.
// It returns the pre-clip norm. Gradient clipping keeps fine-tuning stable
// at the larger stability-loss weights the paper's grid search explores.
func ClipGradNorm(params []*Param, max float64) float64 {
	var ss float64
	for _, p := range params {
		ss += p.Grad().SumSquares()
	}
	norm := math.Sqrt(ss)
	if norm > max && norm > 0 {
		scale := float32(max / norm)
		for _, p := range params {
			p.Grad().Scale(scale)
		}
	}
	return norm
}
