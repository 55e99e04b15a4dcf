package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The inference benchmarks run the default-width model at batch 24 — the
// shape a fleet worker actually infers. (internal/fleet's BenchmarkBackendInfer
// uses width 0.4 at batch 8, which under-sizes every activation.) Each runs
// twice: on the kernels this machine dispatches, and with the vector kernels
// forced off, which is what an amd64 without AVX2 or any other architecture
// runs (on those the two legs are the same code).

func benchmarkInfer(b *testing.B, backend Backend) {
	x := fixedBatch(24, 3)
	run := func(b *testing.B) {
		backend.Infer(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkProbs = backend.Infer(x)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*x.Dim(0)), "us/image")
	}
	b.Run("dispatched", run)
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
}

var sinkProbs []float64

func BenchmarkInferFloat32(b *testing.B) { benchmarkInfer(b, backendTestModel(b)) }

func BenchmarkInferInt8(b *testing.B) { benchmarkInfer(b, NewInt8Backend(backendTestModel(b))) }

func BenchmarkInferPruned(b *testing.B) {
	benchmarkInfer(b, NewPrunedBackend(backendTestModel(b), DefaultPruneKeep))
}

// BenchmarkPlanSteps is the per-step table of one image: a sub-benchmark for
// each step of the float32 and of the int8 plan, named
// <plan>/<idx>/<op>/<c>x<h>x<w> by the step's input shape, and one for the
// dense head (embed and classifier) on the backbone's features, <plan>/head.
// Each step first runs the steps before it, so it reads what its predecessor
// wrote.
func BenchmarkPlanSteps(b *testing.B) {
	m := backendTestModel(b)
	q := NewInt8Backend(m)
	x := fixedBatch(1, 3)
	for _, plan := range []struct {
		name string
		p    *inferPlan
		head func(sc *Scratch, feat *tensor.Tensor)
	}{
		{"float32", m.inferPlan(), func(sc *Scratch, feat *tensor.Tensor) {
			sc.embed = denseInfer(sc.embed, feat, m.Embed)
			sc.logits = denseInfer(sc.logits, sc.embed, m.Head)
		}},
		{"int8", q.plan, func(sc *Scratch, feat *tensor.Tensor) {
			sc.embed = q.embed.apply(sc, sc.embed, feat)
			sc.logits = q.head.apply(sc, sc.logits, sc.embed)
		}},
	} {
		p, sc := plan.p, new(Scratch)
		feat := p.features(sc, x) // sizes the arena and sets every step's geometry
		b.Run(plan.name+"/head", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				plan.head(sc, feat)
			}
		})
		run := func(i int) { p.step(sc, i, x.Data()) }
		for i, s := range p.steps {
			g := sc.geom[i]
			b.Run(fmt.Sprintf("%s/%02d/%s/%dx%dx%d", plan.name, i, stepName(s.op), g.c, g.h, g.w), func(b *testing.B) {
				for before := range i {
					run(before)
				}
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					run(i)
				}
			})
		}
	}
}

func stepName(op planOp) string {
	switch op.(type) {
	case *planConv, *qconv:
		return "conv"
	case *planDepthwise, *qdepthwise:
		return "depthwise"
	case planAdd:
		return "add"
	case planPool:
		return "pool"
	}
	return fmt.Sprintf("%T", op)
}

// BenchmarkTrainStep is the arithmetic of one training step: Forward in
// training mode and Backward of the default-width model on a fixed batch of
// 32 (train's default batch size), the gradient that of cross-entropy on
// fixed labels. Backward's matrix products run on gemmBN, so the two legs
// time them as dispatched and on the Go kernels.
func BenchmarkTrainStep(b *testing.B) {
	m := NewMobileNetV2Micro(rand.New(rand.NewSource(7)), DefaultConfig(5))
	x := fixedBatch(32, 3)
	labels := make([]int, x.Dim(0))
	for i := range labels {
		labels[i] = i % m.Classes
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ZeroGrad()
			logits, _ := m.Forward(x, true)
			_, grad := CrossEntropy(nil, logits, labels)
			m.Backward(grad, nil)
		}
	}
	b.Run("dispatched", run)
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
}
