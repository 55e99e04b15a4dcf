// Package nn implements the neural-network substrate for the reproduction: a
// from-scratch layer library (convolutions, depthwise convolutions, batch
// normalization, dense layers), a MobileNetV2-style micro classifier with an
// embedding tap, optimizers, and the classification / stability losses used
// by the paper's fine-tuning experiments.
//
// Layers operate on batched NCHW tensors, cache their forward activations
// internally, and expose explicit Backward passes; there is no tape-based
// autograd. Training is single-model, with batch-level parallelism inside
// the heavy layers. There is one set of float32 kernels: the layers' Forward
// and the inference plan (infer_plan.go) both run gemmBN, im2colPlanar, the
// depthwise op, the pool and denseInfer, and every convolution and pooling
// product of backward runs on them too (gemmBN for Conv2D and Dense, the
// depthwise op for DepthwiseConv2D). Their Go bodies round every product
// before adding it so that no architecture fuses the two.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor // weights
	G    *tensor.Tensor // gradient, same shape as W
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is a differentiable module. Forward caches whatever Backward needs;
// calling Backward before Forward is a programming error and panics.
type Layer interface {
	// Forward computes the layer output for a batch. train selects
	// training-time behaviour (e.g. batch statistics in BatchNorm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the
	// layer output and returns the gradient with respect to the input,
	// accumulating parameter gradients along the way.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// HeInit fills a convolution/dense weight with He-normal initialization
// (std = sqrt(2/fanIn)), the standard choice for ReLU networks.
func HeInit(rng *rand.Rand, w *tensor.Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	w.RandNormal(rng, std)
}

// parallelFor runs fn(i) for i in [0,n) across GOMAXPROCS goroutines.
// Each index is processed exactly once; fn must be safe to call concurrently
// for distinct indices.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func checkRank(t *tensor.Tensor, rank int, what string) {
	if t.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", what, rank, t.Shape()))
	}
}
