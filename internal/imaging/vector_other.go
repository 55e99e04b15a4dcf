//go:build !amd64 || purego

package imaging

// The portable build, for every GOARCH but amd64 and for amd64 under
// -tags purego, has no vector kernels: the Go loops compute everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func blurRowsVector(dst, src []float32, rows, n, dstStride, srcStride, tapStride int, kernel, init []float32) bool {
	return false
}

func clamp01Vector(pix []float32) int { return 0 }

func rgbToYCbCrVector(yp, cbp, crp, r, g, b []float32) int { return 0 }

func rgbQuant8Vector(r, g, b, y, cb, cr []float32) int { return 0 }

func box3RowVector(dst, r0, r1, r2 []float32) int { return 0 }

func medianKeys(w int) *[]int32 { return nil }

func releaseMedianKeys(keys *[]int32) {}

func median3RowVector(dst, r0, r1, r2 []float32, keys *[]int32) bool { return false }

func halve2x2Vector(dst, src []float32, w, h int) bool { return false }
