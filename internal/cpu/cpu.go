// Package cpu answers the one question the assembly kernels of nn, imaging,
// isp and codec ask before they run: does this processor execute AVX2, and
// does the operating system keep its registers? Each of those packages copies
// the answer into its own unexported dispatch variable, so a test can force
// the Go kernels of one package without touching the others.
package cpu
