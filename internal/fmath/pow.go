package fmath

import "math"

// PowBracket returns an interval [lo, hi] that holds math.Pow(x, y), for a
// caller that needs math.Pow's bits only after its own rounding: push both
// ends through the rounding, use the value when they agree, and call
// math.Pow when they do not (Ziv's rounding test). When the rounding is
// monotone, agreement proves the result, since math.Pow(x, y) lies between
// the ends; it disagrees on about one input in 10⁴.
//
// The fast path covers 0 < x < 1 (x normal) and 0 < y ≤ 8, the range of
// every gamma curve in the tree. It computes xʸ = 2^(y·log₂x) to a relative
// error under 2⁻⁴⁶ (TestPowBracketError), from the exponent bits, a
// 128-entry table and a degree-5 series for log₂, and a 64-entry table and
// a degree-5 series for the power of two, and widens that by 2⁻³⁸ each way.
// math.Pow's own error is far smaller than the widening over this range
// (about 2⁻⁴⁴ at worst, near x = 2⁻¹⁰²², where |log x| is largest), on
// every architecture and with or without its FMA body of Exp, so the
// interval holds the value math.Pow returns wherever the program runs. Any
// other input returns the degenerate interval [math.Pow(x, y),
// math.Pow(x, y)]; that includes x = 1, where a curve saturates (half the
// entries of an ISP table) and math.Pow returns an exact 1 at once.
//
// Every product is rounded before it is added, float64(a*b) + c, so that no
// compiler may fuse the two (scripts/lint_fma.sh); PowBracket allocates
// nothing.
func PowBracket(x, y float64) (lo, hi float64) {
	b := math.Float64bits(x)
	if !(y > 0 && y <= 8) || b-powMinBits >= powOneBits-powMinBits {
		p := math.Pow(x, y)
		return p, p
	}
	// x = 2ᵉ·m with m in [1, 2); m = c·(1+r), where c is the centre of m's
	// table interval, so |r| ≤ 2⁻⁸ and m − c is exact.
	e := float64(int(b>>52) - 1023)
	t := &powLogTab[b>>45&(powLogN-1)]
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	r := float64((m - t.c) * t.invC)
	l := t.log2C + float64(r*(powL1+float64(r*(powL2+float64(r*(powL3+float64(r*(powL4+float64(r*powL5)))))))))

	// y·log₂x = y·e + y·l, with y·e carried as yh·e, exact since yh has 26
	// significant bits and e at most 11, and the small rest (y−yh)·e + y·l.
	// Their sum in 64ths is split at the nearest integer k; g is what is
	// left, |g| ≤ 2⁻⁷, in units of one.
	yh := math.Float64frombits(math.Float64bits(y) &^ (1<<27 - 1))
	hi64 := float64(64 * float64(yh*e))
	lo64 := float64(64 * (float64((y-yh)*e) + float64(y*l)))
	kf := hi64 + lo64 + powRound - powRound
	g := float64((float64(hi64-kf) + lo64) * (1.0 / 64))
	k := int64(kf)
	n := k >> 6 // floor(k / 64): 2ⁿ scales 2^((k mod 64)/64)·2ᵍ
	if n < -1020 {
		p := math.Pow(x, y)
		return p, p
	}
	s := powExpTab[k&(powExpN-1)]
	q := float64(g * (powE1 + float64(g*(powE2+float64(g*(powE3+float64(g*(powE4+float64(g*powE5)))))))))
	p := float64((s + float64(s*q)) * math.Float64frombits(uint64(n+1023)<<52))
	return float64(p * (1 - powSlack)), float64(p * (1 + powSlack))
}

// PowFloat32 is float32(math.Pow(x, y)), bit for bit: math.Pow runs only
// for the inputs whose bracket straddles a float32 rounding boundary.
func PowFloat32(x, y float64) float32 {
	lo, hi := PowBracket(x, y)
	if p := float32(lo); p == float32(hi) {
		return p
	}
	return float32(math.Pow(x, y))
}

const (
	// powSlack is the interval's half-width relative to the approximation.
	powSlack = 0x1p-38

	powMinBits = 0x0010000000000000 // bits of 2⁻¹⁰²², the least normal float64
	powOneBits = 0x3FF0000000000000 // bits of 1

	// powRound rounds a float64 under 2⁵¹ in magnitude to the nearest
	// integer when added and subtracted again.
	powRound = 0x1.8p52

	powLogN = 128
	powExpN = 64

	// powL1..powL5 are log₂(1+r) = ln(1+r)/ln 2 to degree 5 over
	// |r| ≤ h = 2⁻⁸, the r⁶ term folded into r⁴ and r² by Chebyshev
	// economization: r⁶ ≈ (3/2)h²r⁴ − (9/16)h⁴r² + h⁶/32 with error h⁶/32.
	// What is left is under 2⁻⁵⁴ in ln(1+r).
	powH  = 0x1p-8
	powL1 = 1 / math.Ln2
	powL2 = (-0.5 + 3.0/32*powH*powH*powH*powH) / math.Ln2
	powL3 = 1.0 / 3 / math.Ln2
	powL4 = (-0.25 - 0.25*powH*powH) / math.Ln2
	powL5 = 1.0 / 5 / math.Ln2

	// powE1..powE5 are 2ᵍ − 1 = Σ (g·ln 2)ᵏ/k! to degree 5; at |g| ≤ 2⁻⁷
	// the first term left out is under 2⁻⁵⁴.
	powE1 = math.Ln2
	powE2 = math.Ln2 * math.Ln2 / 2
	powE3 = math.Ln2 * math.Ln2 * math.Ln2 / 6
	powE4 = math.Ln2 * math.Ln2 * math.Ln2 * math.Ln2 / 24
	powE5 = math.Ln2 * math.Ln2 * math.Ln2 * math.Ln2 * math.Ln2 / 120
)

// powLogEntry is one interval [1 + i/128, 1 + (i+1)/128) of the mantissa:
// its centre c, 1/c and log₂ c.
type powLogEntry struct{ c, invC, log2C float64 }

var (
	powLogTab = func() (t [powLogN]powLogEntry) {
		for i := range t {
			c := 1 + float64((float64(i)+0.5)/powLogN)
			t[i] = powLogEntry{c, 1 / c, math.Log2(c)}
		}
		return t
	}()
	// powExpTab[j] is 2^(j/64).
	powExpTab = func() (t [powExpN]float64) {
		for j := range t {
			t[j] = math.Exp2(float64(j) / powExpN)
		}
		return t
	}()
)
