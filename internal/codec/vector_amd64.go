package codec

import "repro/internal/cpu"

// The amd64 build of the transforms' vector half. The forward transform is
// rows then columns, tmp = src·basisᵀ and dst = basis·tmp; the inverse is
// columns then rows, tmp = basisᵀ·src and dst = tmp·basis: each line of
// forward8/16 and inverse8/16 is one row or column of those products, summed
// in the same order (dct.go). vector_other.go is the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go kernels on this machine.
var useVector = cpu.AVX2

//go:noescape
func matmul8AVX2(dst, a, b *float32)

//go:noescape
func matmul16AVX2(dst, a, b *float32)

// forward8Vector is forward8 on the vector kernel and reports whether it ran;
// the other three follow it.
func forward8Vector(dst, src []float32) bool {
	if !useVector {
		return false
	}
	var tmp [64]float32
	_, _ = dst[63], src[63]
	matmul8AVX2(&tmp[0], &src[0], &basisT8[0][0])
	matmul8AVX2(&dst[0], &basis8[0][0], &tmp[0])
	return true
}

func inverse8Vector(dst, src []float32) bool {
	if !useVector {
		return false
	}
	var tmp [64]float32
	_, _ = dst[63], src[63]
	matmul8AVX2(&tmp[0], &basisT8[0][0], &src[0])
	matmul8AVX2(&dst[0], &tmp[0], &basis8[0][0])
	return true
}

func forward16Vector(dst, src []float32) bool {
	if !useVector {
		return false
	}
	var tmp [256]float32
	_, _ = dst[255], src[255]
	matmul16AVX2(&tmp[0], &src[0], &basisT16[0][0])
	matmul16AVX2(&dst[0], &basis16[0][0], &tmp[0])
	return true
}

func inverse16Vector(dst, src []float32) bool {
	if !useVector {
		return false
	}
	var tmp [256]float32
	_, _ = dst[255], src[255]
	matmul16AVX2(&tmp[0], &basisT16[0][0], &src[0])
	matmul16AVX2(&dst[0], &tmp[0], &basis16[0][0])
	return true
}
