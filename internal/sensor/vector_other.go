//go:build !amd64

package sensor

// The portable build has no vector kernel: the Go loop computes everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func mosaicRowVector(dst, sample []float32, shotN, readN, dx2 []float64, k *mosaicConsts) int {
	return 0
}
