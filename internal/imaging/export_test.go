package imaging

// ForcePortableKernels turns the vector kernels off and returns the function
// that restores the dispatch, for tests outside the package.
func ForcePortableKernels() (restore func()) {
	was := useVector
	useVector = false
	return func() { useVector = was }
}
