//go:build !amd64

package codec

// The portable build has no vector kernels: the Go kernels compute
// everything. useVector exists so that the tests that clear it build on every
// architecture.
var useVector = false

func forward8Vector(dst, src []float32) bool { return false }

func inverse8Vector(dst, src []float32) bool { return false }

func forward16Vector(dst, src []float32) bool { return false }

func inverse16Vector(dst, src []float32) bool { return false }
