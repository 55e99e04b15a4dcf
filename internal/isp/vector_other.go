//go:build !amd64 || purego

package isp

// The portable build, for every GOARCH but amd64 and for amd64 under
// -tags purego, has no vector kernels: the Go loops compute everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func applyLUTVector(pix, lut []float32, scale float32) int { return 0 }

func applyMatrixVector(pix []float32, n int, m *[9]float32) int { return 0 }

func unsharpVector(pix, blur []float32, amount float32) int { return 0 }

func bilinearChanVector(dst, src []float32, base int, init []float32, pl *[2]lanePlan) bool {
	return false
}

func edgeGreenRowVector(dst, src []float32, base, stride, gp int) bool { return false }

func edgeRBChanVector(dst, src, green []float32, base int, init []float32, pl *[2]lanePlan) bool {
	return false
}
