//go:build !amd64

package cpu

// AVX2 is false off amd64: the portable build has no vector kernels.
const AVX2 = false
