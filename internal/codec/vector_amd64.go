package codec

import "repro/internal/cpu"

// The amd64 build of the transforms' vector half: the 8×8 and 16×16 matrix
// products of matmul (dct.go). vector_other.go is the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go kernel on this machine.
var useVector = cpu.AVX2

//go:noescape
func matmul8AVX2(dst, a, b *float32)

//go:noescape
func matmul16AVX2(dst, a, b *float32)

// matmulVector is matmul on the vector kernel of its block size, if there is
// one, and reports whether it ran. Each of dst, a and b holds n·n elements.
func matmulVector(n int, dst, a, b []float32) bool {
	switch {
	case !useVector:
		return false
	case n == 8:
		matmul8AVX2(&dst[0], &a[0], &b[0])
	case n == 16:
		matmul16AVX2(&dst[0], &a[0], &b[0])
	default:
		return false
	}
	return true
}
