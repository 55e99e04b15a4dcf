package nn

import (
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// InvertedResidual builds a MobileNetV2 inverted-residual block: a 1×1
// expansion convolution, a 3×3 depthwise convolution, and a 1×1 linear
// projection, each followed by BatchNorm, which ends in ReLU6 except after the
// projection (a "linear bottleneck"). When stride==1 and inC==outC the block
// gets an identity skip connection.
func InvertedResidual(rng *rand.Rand, name string, inC, outC, expand, stride int) Layer {
	mid := inC * expand
	var body Sequential
	if expand != 1 {
		body.Append(
			NewConv2D(rng, name+".expand", inC, mid, 1, 1, 1, 0),
			newBatchNormReLU6(name+".expand_bn", mid),
		)
	}
	body.Append(
		NewDepthwiseConv2D(rng, name+".dw", mid, 3, stride, 1),
		newBatchNormReLU6(name+".dw_bn", mid),
		NewConv2D(rng, name+".project", mid, outC, 1, 1, 1, 0),
		NewBatchNorm(name+".project_bn", outC),
	)
	if stride == 1 && inC == outC {
		return NewResidual(&body)
	}
	return &body
}

// newBatchNormReLU6 is a BatchNorm ending in ReLU6.
func newBatchNormReLU6(name string, ch int) *BatchNorm {
	bn := NewBatchNorm(name, ch)
	bn.ReLU6 = true
	return bn
}

// Model is a classifier with an embedding tap: the backbone ends in global
// average pooling, the embedding Dense (with ReLU) is the paper's "extra
// fully-connected layer" used by the embedding-distance stability loss, and
// the head produces class logits.
type Model struct {
	Backbone *Sequential // (N,3,H,W) → (N, feat)
	Embed    *Dense      // (N, feat) → (N, embedDim)
	Head     *Dense      // (N, embedDim) → (N, classes)

	Classes  int
	EmbedDim int
	InputHW  int

	planOnce sync.Once
	plan     *inferPlan // inference-only execution plan of Backbone, see InferIn
	own      Scratch    // Infer's
}

// ModelConfig selects the micro-architecture size.
type ModelConfig struct {
	InputHW  int // square input resolution (e.g. 32)
	Classes  int
	EmbedDim int
	// Width multiplies the base channel counts; 1.0 is the default micro
	// model (~100k parameters).
	Width float64
}

// DefaultConfig is the configuration used throughout the experiments.
func DefaultConfig(classes int) ModelConfig {
	return ModelConfig{InputHW: 32, Classes: classes, EmbedDim: 48, Width: 1.0}
}

func scaleCh(base int, width float64) int {
	c := int(float64(float64(base)*width) + 0.5)
	if c < 4 {
		c = 4
	}
	return c
}

// NewMobileNetV2Micro constructs the reduced MobileNetV2-style classifier
// described in DESIGN.md: stem convolution, five inverted-residual stages,
// 1×1 head convolution, global average pooling, embedding layer, and a
// linear classification head.
func NewMobileNetV2Micro(rng *rand.Rand, cfg ModelConfig) *Model {
	if cfg.Width == 0 {
		cfg.Width = 1.0
	}
	c0 := scaleCh(12, cfg.Width)
	c1 := scaleCh(16, cfg.Width)
	c2 := scaleCh(24, cfg.Width)
	c3 := scaleCh(32, cfg.Width)
	feat := scaleCh(64, cfg.Width)

	backbone := NewSequential(
		NewConv2D(rng, "stem", 3, c0, 3, 3, 1, 1),
		newBatchNormReLU6("stem_bn", c0),
		InvertedResidual(rng, "ir1", c0, c0, 1, 1),
		InvertedResidual(rng, "ir2", c0, c1, 4, 2),
		InvertedResidual(rng, "ir3", c1, c1, 4, 1),
		InvertedResidual(rng, "ir4", c1, c2, 4, 2),
		InvertedResidual(rng, "ir5", c2, c2, 4, 1),
		InvertedResidual(rng, "ir6", c2, c3, 4, 2),
		NewConv2D(rng, "head_conv", c3, feat, 1, 1, 1, 0),
		newBatchNormReLU6("head_bn", feat),
		NewGlobalAvgPool(),
	)
	embed := NewDense(rng, "embed", feat, cfg.EmbedDim)
	embed.ReLU = true
	return &Model{
		Backbone: backbone,
		Embed:    embed,
		Head:     NewDense(rng, "head", cfg.EmbedDim, cfg.Classes),
		Classes:  cfg.Classes,
		EmbedDim: cfg.EmbedDim,
		InputHW:  cfg.InputHW,
	}
}

// Forward runs the full model, returning both class logits (N,classes) and
// the embedding activations (N,embedDim) that the stability loss consumes.
func (m *Model) Forward(x *tensor.Tensor, train bool) (logits, embedding *tensor.Tensor) {
	f := m.Backbone.Forward(x, train)
	e := m.Embed.Forward(f, train)
	z := m.Head.Forward(e, train)
	return z, e
}

// Backward propagates gradients from the logits and (optionally) directly
// from the embedding. dEmbed may be nil when only the classification loss is
// active.
func (m *Model) Backward(dLogits, dEmbed *tensor.Tensor) {
	de := m.Head.Backward(dLogits)
	if dEmbed != nil {
		de.AddScaled(1, dEmbed)
	}
	df := m.Embed.Backward(de)
	m.Backbone.backwardParams(df)
}

// Params returns every trainable parameter in the model.
func (m *Model) Params() []*Param {
	ps := m.Backbone.Params()
	ps = append(ps, m.Embed.Params()...)
	ps = append(ps, m.Head.Params()...)
	return ps
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of trainable scalars.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}
