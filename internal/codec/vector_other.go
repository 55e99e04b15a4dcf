//go:build !amd64 || purego

package codec

// The portable build, for every GOARCH but amd64 and for amd64 under
// -tags purego, has no vector kernels: the Go kernel computes everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func matmulVector(n int, dst, a, b []float32) bool { return false }

func quantizeScanVector(out []int32, freq, scanQuant []float32) bool { return false }

func dequantizeScanVector(freq []float32, cf []int32, quant []float32) bool { return false }

func loadBlockVector(block, src []float32, stride, n int, mid float32) bool { return false }

func storeBlockVector(dst, spatial []float32, stride, n int, mid float32) bool { return false }

func downsample2xVector(dst, src []float32, rows, cells, dstStride, srcStride int) int { return 0 }

func nearestRowVector(out, row []float32) int { return 0 }

func upsampleFancyVector(dst, src []float32, sw, sh, w, h int, x0s, x1s []int, wxs []float32, s *scratch) bool {
	return false
}

func nonzeroMaskVector(mask []uint64, cf []int32) int { return 0 }
