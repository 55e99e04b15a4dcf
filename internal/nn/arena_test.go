package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// trainStepAllocCeiling bounds the bytes one warm training step of the
// width-0.4 model may allocate on one core: new tensor headers when the batch
// size changes, the KL loss's row of log-ratios and parallelFor's closures,
// 26 KB in all, where the step's buffers total about 33 MB at batch 16. Every
// convolution's output is 10 KB or more at batch 12, so one of them allocated
// again every step breaks it.
const trainStepAllocCeiling = 32 << 10

// TestTrainStepAllocCeiling: after one warm-up step every buffer a training
// step writes is reused, so a step — Forward, both losses, Backward, gradient
// clipping and an SGD update — allocates next to nothing. The steps alternate
// a batch of 16 and one of 12, so re-slicing the buffers to the batch is part
// of what is held to the ceiling. They are measured on one core: parallelFor
// starts a goroutine a core, which is not a buffer.
func TestTrainStepAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 32, Classes: 10, EmbedDim: 48, Width: 0.4})
	opt := NewSGD(0.01, 0.9, 0)
	type batch struct {
		x      *tensor.Tensor
		labels []int
	}
	var batches []batch
	for _, n := range []int{16, 12} {
		b := batch{x: tensor.New(n, 3, 32, 32), labels: make([]int, n)}
		b.x.RandUniform(rng, 0, 1)
		for i := range b.labels {
			b.labels[i] = rng.Intn(10)
		}
		batches = append(batches, b)
	}
	var ce, dz, dzp *tensor.Tensor
	steps := 0
	step := func() {
		b := batches[steps%len(batches)]
		steps++
		m.ZeroGrad()
		logits, _ := m.Forward(b.x, true)
		_, ce = CrossEntropy(ce, logits, b.labels)
		_, dz, dzp = KLStability(dz, dzp, logits, logits)
		ce.AddScaled(1, dz)
		m.Backward(ce, nil)
		ClipGradNorm(m.Params(), 5)
		opt.Step(m.Params())
	}
	step()
	step()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > trainStepAllocCeiling {
		t.Errorf("a warm training step allocates %d B, ceiling %d", got, trainStepAllocCeiling)
	}
}

// TestLayerStepsRepeat: every layer kind, stepped on a batch, then on a
// smaller one, then on the first again, gives the first step's output, input
// gradient and parameter gradients bit for bit. A buffer a step reads before
// it writes it — the scatter target of a convolution's input gradient, a
// depthwise layer's zero-stuffed grid — would carry the other batch's values
// into the third step.
func TestLayerStepsRepeat(t *testing.T) {
	dense := NewDense(rand.New(rand.NewSource(7)), "d", 5, 4)
	dense.ReLU = true
	for _, tc := range []struct {
		name  string
		layer Layer
		image []int // an input image's shape
	}{
		{"conv 3x3", NewConv2D(rand.New(rand.NewSource(1)), "c", 3, 4, 3, 3, 1, 1), []int{3, 7, 6}},
		{"conv 3x3 stride 2", NewConv2D(rand.New(rand.NewSource(2)), "c", 3, 4, 3, 3, 2, 1), []int{3, 7, 6}},
		{"conv 1x1", NewConv2D(rand.New(rand.NewSource(3)), "c", 3, 4, 1, 1, 1, 0), []int{3, 7, 6}},
		{"depthwise", NewDepthwiseConv2D(rand.New(rand.NewSource(4)), "dw", 3, 3, 1, 1), []int{3, 7, 6}},
		{"depthwise stride 2", NewDepthwiseConv2D(rand.New(rand.NewSource(5)), "dw", 3, 3, 2, 1), []int{3, 7, 6}},
		{"batchnorm relu6", newBatchNormReLU6("bn", 3), []int{3, 7, 6}},
		{"pool", NewGlobalAvgPool(), []int{3, 7, 6}},
		{"residual", NewResidual(NewSequential(NewConv2D(rand.New(rand.NewSource(6)), "c", 3, 3, 1, 1, 1, 0), NewBatchNorm("bn", 3))), []int{3, 7, 6}},
		{"dense relu", dense, []int{5}},
	} {
		step := func(n int, seed int64) [][]float32 {
			y := tc.layer.Forward(refLayerInput(rand.New(rand.NewSource(seed)), append([]int{n}, tc.image...)...), true)
			dy := refLayerInput(rand.New(rand.NewSource(seed+1)), y.Shape()...)
			for _, p := range tc.layer.Params() {
				p.ZeroGrad()
			}
			out := [][]float32{slices.Clone(y.Data()), slices.Clone(tc.layer.Backward(dy).Data())}
			for _, p := range tc.layer.Params() {
				out = append(out, slices.Clone(p.Grad().Data()))
			}
			return out
		}
		first := step(3, 10)
		step(2, 20)
		for i, got := range step(3, 10) {
			sameBits32(t, fmt.Sprintf("%s, tensor %d of the repeated step", tc.name, i), got, first[i])
		}
	}
}
