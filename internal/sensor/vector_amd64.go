//go:build !purego

package sensor

import (
	"math"

	"repro/internal/cpu"
)

// The amd64 build of the sensor's vector halves: assembly twins of
// mosaicRow's arithmetic, of the chromatic-aberration resample's interior,
// and of the noise source's seeding, block add and ziggurat fast path, each
// behind a wrapper that bounds-checks every element it will touch.
// vector_other.go is the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go loops on this machine.
var useVector = cpu.AVX2

//go:noescape
func mosaicRowAVX2(dst, sample *float32, noise, dx2 *float64, n int, k *mosaicConsts)

// mosaicRowVector runs mosaicRow over the whole vectors of 4 pixels of the
// row and returns how many pixels that was.
func mosaicRowVector(dst, sample []float32, noise, dx2 []float64, k *mosaicConsts) int {
	n := len(dst) &^ 3
	if !useVector || n == 0 {
		return 0
	}
	_, _, _ = sample[n-1], noise[2*n-1], dx2[n-1]
	mosaicRowAVX2(&dst[0], &sample[0], &noise[0], &dx2[0], n, k)
	return n
}

//go:noescape
func caRowAVX2(sample, row *float32, x, n int, s float32)

// caRowVector runs caRow's interior columns of parity xp on the vector
// kernel, sixteen columns (eight samples) a step, and returns the columns
// [v0, v1) it covered, both of parity xp; v0 = v1 = xp when it took none.
// The steps run from the first such column at or after lo, and the last one
// ends at the last such column, recomputing samples of the step before from
// the same taps. A step's samples lie inside [lo, hi] and inside caInterior's
// range, which keeps both taps of each inside the row whatever lo and hi
// say, and its 16-column store ends inside the row. Rows of 2²⁰ columns or
// more, where float32(x) nears inexactness, are the Go loop's.
func caRowVector(sample, row []float32, xp int, s float32, lo, hi int) (v0, v1 int) {
	w := len(row)
	safeLo, safeHi := caInterior(w, s)
	lo, hi = max(lo, safeLo), min(hi, safeHi)
	v0 = max(lo, xp)
	v0 += (v0 - xp) & 1
	last := min(hi, w-2) // the last column a step's last sample may be
	last -= (last - xp) & 1
	if !useVector || w >= 1<<20 || last < v0+14 {
		return xp, xp
	}
	n := (last-v0-14)/16 + 1
	_ = sample[last+1]
	caRowAVX2(&sample[0], &row[0], v0, n, s)
	if v0+16*n <= last {
		caRowAVX2(&sample[0], &row[0], last-14, 1, s)
	}
	return v0, last + 2
}

//go:noescape
func seedAVX2(vec *uint64, x uint64, n int)

//go:noescape
func addBlockAVX2(dst, src *uint64, n int)

//go:noescape
func normFastAVX2(dst *float64, src *uint64, n int) int

// seedVector runs Seed's loop over the register's whole vectors of 4 words
// and returns how many words that was.
func seedVector(vec *[rngLen]uint64, x uint64) int {
	if !useVector {
		return 0
	}
	seedAVX2(&vec[0], x, rngLen&^3)
	return rngLen &^ 3
}

// addBlockVector runs addBlock over the whole vectors of 4 words of the
// block and returns how many words that was.
func addBlockVector(dst, src []uint64) int {
	n := len(dst) &^ 3
	if !useVector || n == 0 {
		return 0
	}
	_ = src[n-1]
	addBlockAVX2(&dst[0], &src[0], n)
	return n
}

// knwn holds each ziggurat strip's kn and wn side by side, so that the fast
// path gathers both with one instruction a vector.
var knwn = func() (t [128]uint64) {
	for i := range t {
		t[i] = uint64(kn[i]) | uint64(math.Float32bits(wn[i]))<<32
	}
	return t
}()

// normFastVector runs normFast over src's whole vectors of 4 draws and
// returns how many leading draws it took: all of them, or up to the first
// off the fast path. It may write dst past that draw, up to the end of its
// vector.
func normFastVector(dst []float64, src []uint64) int {
	n := len(src) &^ 3
	if !useVector || n == 0 {
		return 0
	}
	_ = dst[n-1]
	return normFastAVX2(&dst[0], &src[0], n)
}
