package nn

import "fmt"

// fusedGraph receives the inference-time ops walkFused recognises in a layer
// graph: a convolution with the BatchNorm it ends in, and that BatchNorm's
// ReLU6 when it has one. Both compiled runtimes — the int8 backend and the
// float32/pruned inference plan — are built through it, so they agree on what
// fuses.
type fusedGraph interface {
	conv(c *Conv2D, bn *BatchNorm)
	depthwise(l *DepthwiseConv2D, bn *BatchNorm)
	// residual is handed the body of an identity-skip block; the
	// implementation walks it with whatever nesting it needs.
	residual(body []Layer)
	pool()
}

// walkFused pattern-matches the float layer graph into fused ops:
// Conv2D/DepthwiseConv2D followed by BatchNorm become one op, which ends in
// the BatchNorm's ReLU6 when it has one; Residual hands over its body, nested
// Sequentials are flattened and GlobalAvgPool stands alone.
func walkFused(layers []Layer, g fusedGraph) {
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Conv2D:
			g.conv(l, followingBN(layers, i))
			i++
		case *DepthwiseConv2D:
			g.depthwise(l, followingBN(layers, i))
			i++
		case *Residual:
			body, ok := l.Body.(*Sequential)
			if !ok {
				panic(fmt.Sprintf("nn: compile: residual body %T is not *Sequential", l.Body))
			}
			g.residual(body.Layers)
		case *Sequential:
			walkFused(l.Layers, g)
		case *GlobalAvgPool:
			g.pool()
		default:
			panic(fmt.Sprintf("nn: compile: unsupported layer %T", l))
		}
	}
}

// followingBN returns the BatchNorm directly after the convolution at index
// i, which the micro model guarantees (convolutions carry no bias; BN
// supplies the shift a fused kernel needs).
func followingBN(layers []Layer, i int) *BatchNorm {
	var bn *BatchNorm
	if i+1 < len(layers) {
		bn, _ = layers[i+1].(*BatchNorm)
	}
	if bn == nil {
		panic(fmt.Sprintf("nn: compile: convolution at %d not followed by BatchNorm", i))
	}
	return bn
}
