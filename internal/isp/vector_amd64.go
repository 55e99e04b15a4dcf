package isp

import "repro/internal/cpu"

// The amd64 build of the fused pipeline's vector half: assembly twins of the
// curve, matrix and unsharp passes, behind wrappers that hand each kernel the
// whole vectors of its input and bounds-check every element it will touch.
// The Go loops take what the wrappers report as not done. vector_other.go is
// the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go loops on this machine.
var useVector = cpu.AVX2

//go:noescape
func applyLUTAVX2(pix *float32, n int, lut *float32, last int, scale float32) int

//go:noescape
func applyMatrixAVX2(red, green, blue *float32, n int, m *float32)

//go:noescape
func unsharpAVX2(pix, blur *float32, n int, amount float32)

// applyLUTVector runs applyLUT over the whole vectors of pix, up to the first
// one holding a sample the kernel leaves to the Go loop (applyLUTAVX2), and
// returns how many samples it wrote.
func applyLUTVector(pix, lut []float32, scale float32) int {
	n := len(pix) &^ 7
	if !useVector || n == 0 || len(lut) != lutSize {
		return 0
	}
	return applyLUTAVX2(&pix[0], n, &lut[0], lutSize-1, scale)
}

// applyMatrixVector mixes the whole vectors of the three planes, each n
// samples, and returns how many samples that was.
func applyMatrixVector(pix []float32, n int, m *[9]float32) int {
	vn := n &^ 7
	if !useVector || vn == 0 {
		return 0
	}
	_ = pix[3*n-1]
	applyMatrixAVX2(&pix[0], &pix[n], &pix[2*n], vn, &m[0])
	return vn
}

// unsharpVector sharpens the whole vectors of pix against blur and returns
// how many samples that was.
func unsharpVector(pix, blur []float32, amount float32) int {
	n := len(pix) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_ = blur[n-1]
	unsharpAVX2(&pix[0], &blur[0], n, amount)
	return n
}
