//go:build !amd64 || purego

package sensor

// The portable build, for every GOARCH but amd64 and for amd64 under
// -tags purego, has no vector kernels: the Go loops compute everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func mosaicRowVector(dst, sample []float32, noise, dx2 []float64, k *mosaicConsts) int {
	return 0
}

func seedVector(vec *[rngLen]uint64, x uint64) int { return 0 }

func addBlockVector(dst, src []uint64) int { return 0 }

func normFastVector(dst []float64, src []uint64) int { return 0 }
