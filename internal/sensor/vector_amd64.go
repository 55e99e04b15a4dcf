package sensor

import "repro/internal/cpu"

// The amd64 build of the mosaic's vector half: an assembly twin of
// mosaicRow's arithmetic, behind a wrapper that bounds-checks every element
// it will touch. vector_other.go is the portable build.

// useVector reports that the AVX2 kernel may run: set once from CPUID, and
// cleared only by tests that want the Go loop on this machine.
var useVector = cpu.AVX2

//go:noescape
func mosaicRowAVX2(dst, sample *float32, shotN, readN, dx2 *float64, n int, k *mosaicConsts)

// mosaicRowVector runs mosaicRow over the whole vectors of 4 pixels of the
// row and returns how many pixels that was.
func mosaicRowVector(dst, sample []float32, shotN, readN, dx2 []float64, k *mosaicConsts) int {
	n := len(dst) &^ 3
	if !useVector || n == 0 {
		return 0
	}
	_, _, _, _ = sample[n-1], shotN[n-1], readN[n-1], dx2[n-1]
	mosaicRowAVX2(&dst[0], &sample[0], &shotN[0], &readN[0], &dx2[0], n, k)
	return n
}
