package sensor

// ForcePortableKernels turns the vector kernel off and returns the function
// that restores the dispatch, for tests outside the package.
func ForcePortableKernels() (restore func()) {
	was := useVector
	useVector = false
	return func() { useVector = was }
}
