// Package fmath holds the tiny numeric helpers the whole tree shares:
// absolute value and clamping for float32 samples, which the hot-path
// kernels (isp, imaging, nn) all funnel through so the compiler inlines one
// definition everywhere, Mix, the one seed-derivation function of the
// determinism contract, and PowBracket, the fast power that the display and
// the gamma curves round through to math.Pow's bits.
package fmath

// Mix derives a well-distributed sub-seed from a base seed and coordinate
// values (splitmix64 finalizer per value). Sub-streams for different
// coordinates are statistically independent, which per-cell rand.Rand
// instances need: adjacent plain seeds produce correlated first draws. Every
// device, display, capture, item, lifecycle and load-generator seed comes
// from here, each package under its own leading namespace values, so a
// change to this function moves every golden in the tree.
func Mix(seed int64, vals ...int64) int64 {
	z := uint64(seed)
	for _, v := range vals {
		z += uint64(v)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z)
}

// Abs returns |v| for float32 without the float64 round trip of math.Abs.
func Abs(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Clamp01 clips v to [0,1], the normalized range every image plane uses.
func Clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
