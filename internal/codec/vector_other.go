//go:build !amd64

package codec

// The portable build has no vector kernels: the Go kernel computes
// everything. useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func matmulVector(n int, dst, a, b []float32) bool { return false }
