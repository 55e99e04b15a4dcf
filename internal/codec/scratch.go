package codec

import "sync"

// scratch holds the reusable buffers of one encode or decode pass: the
// per-block transform scratch plus the intermediate plane buffers that used
// to be reallocated on every capture. The fleet drives millions of
// encode/decode round trips, so the codec keeps a pool of these and each
// pass borrows one — workers never share a scratch, results are unaffected
// because every buffer is fully overwritten before it is read.
type scratch struct {
	block, freq, spatial []float32
	// scanQuant is an encode's quant table in scan order.
	scanQuant []float32
	// planes are the dequantized Y/Cb/Cr buffers of a decode, or the
	// downsampled chroma of an encode.
	planes [3][]float32
	// up are the upsampled full-resolution chroma buffers of a decode.
	up [2][]float32
	// ycc are the full-resolution Y/Cb/Cr planes of an encode's color
	// conversion.
	ycc [3][]float32
	// upx0/upx1/upwx are the hoisted horizontal taps of triangle-filter
	// chroma upsampling.
	upx0, upx1 []int
	upwx       []float32
	// upRows are the horizontally blended source rows of the vector
	// kernels' triangle-filter upsampling.
	upRows []float32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// growInts is grow for index buffers.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// growInt32 is grow for coefficient buffers.
func growInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}
