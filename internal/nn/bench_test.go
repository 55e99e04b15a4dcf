package nn

import "testing"

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
