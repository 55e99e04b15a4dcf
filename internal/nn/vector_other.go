//go:build !amd64 || purego

package nn

// The portable build, for every GOARCH but amd64 and for amd64 under
// -tags purego, has no vector kernels: the Go kernels compute everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func gemmBNVector(dst, w, a []float32, outC, p, k int, scale, shift []float32, relu6 bool) (cs, ps int) {
	return 0, 0
}

func qgemmTiles(dst []float32, w *qmatrix, c0, c1 int, panel []int8, p int, ax float32, bias []float32, clamp float32) (cs, ps int) {
	return c0, 0
}

func dw3x3Vector(sc *Scratch, dst, src, ker, scale, shift []float32, ch, inH, inW, outH, outW, stride, pad int, relu6 bool) int {
	return 0
}

func qdw3x3Vector(sc *Scratch, o *qdepthwise, dst, src []float32, ch, inH, inW, outH, outW int) bool {
	return false
}

func absMaxVector(src []float32) (m uint32, n int) { return 0, 0 }

func absMaxPlanesVector(rec []uint32, src []float32, hw int) bool { return false }

func quantizePanelVector(dst []int8, src []float32, p, k int, inv float32) (ps int) { return 0 }

func quantizeRowVector(dst []int8, src []float32, inv float32) int { return 0 }

func qgemvVector(acc []int32, w *qmatrix, x []int8) int { return 0 }

func addVector(dst, src []float32) int { return 0 }
