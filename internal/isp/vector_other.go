//go:build !amd64

package isp

// The portable build has no vector kernels: the Go loops compute everything.
// useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func applyLUTVector(pix, lut []float32, scale float32) int { return 0 }

func applyMatrixVector(pix []float32, n int, m *[9]float32) int { return 0 }

func unsharpVector(pix, blur []float32, amount float32) int { return 0 }
