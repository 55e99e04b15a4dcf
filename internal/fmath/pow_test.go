package fmath

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// powCurve is one caller of PowBracket: an exponent and the rounding the
// caller pushes both ends of the bracket through.
type powCurve struct {
	name  string
	y     float64
	round func(float64) float32
}

func roundFloat32(p float64) float32 { return float32(p) }

// roundSRGB is isp's sRGB arm, float32(1.055·p − 0.055).
func roundSRGB(p float64) float32 { return float32(float64(1.055*p) - 0.055) }

// sweepPowCurve runs every stride-th float32 in (0, 1] through the bracket of
// one curve: the bracket must hold math.Pow's value and, where its ends
// round alike, give the rounded math.Pow. It returns the inputs swept and
// the ones whose ends round apart, which a caller hands to math.Pow.
func sweepPowCurve(t *testing.T, c powCurve, stride uint32) (n, fallbacks int) {
	t.Helper()
	bad := 0
	for u := uint32(1); u <= math.Float32bits(1); u += stride {
		x := float64(math.Float32frombits(u))
		p := math.Pow(x, c.y)
		lo, hi := PowBracket(x, c.y)
		n++
		if !(lo <= p && p <= hi) {
			if bad++; bad <= 5 {
				t.Errorf("%s: PowBracket(%v, %v) = [%v, %v] does not hold math.Pow's %v", c.name, x, c.y, lo, hi, p)
			}
			continue
		}
		if r := c.round(lo); r != c.round(hi) {
			fallbacks++
		} else if r != c.round(p) {
			if bad++; bad <= 5 {
				t.Errorf("%s: x=%v: bracketed %v, math.Pow gives %v", c.name, x, r, c.round(p))
			}
		}
	}
	return n, fallbacks
}

// TestPowBracketMatchesMathPow sweeps every 101st float32 in (0, 1] through
// the curves of the tree — the display's 2.2, the sRGB arm, the base ISP
// power laws 1/2.2, 1/2.15, 1/2.3 and 1/1.9 — and, every 10007th, 64 device
// exponents jittered ±3% as device synthesis draws them. The bracket must
// always hold math.Pow's value, and its ends round apart on under 10⁻⁴ of
// the inputs of each base curve and of the jittered ones together. (A
// bracket 2⁻³⁷ wide straddles a float32 rounding boundary with probability
// 2⁻¹⁴ times the output's mantissa, ~0.9·10⁻⁴ where every output is a
// normal float32; each jittered curve's ~100 expected fallbacks alone are
// too few to hold to that.)
func TestPowBracketMatchesMathPow(t *testing.T) {
	type job struct {
		c      powCurve
		stride uint32
		n, fb  int
	}
	jobs := []*job{
		{c: powCurve{"display 2.2", 2.2, roundFloat32}},
		{c: powCurve{"sRGB", 1 / 2.4, roundSRGB}},
		{c: powCurve{"1/2.2", 1 / 2.2, roundFloat32}},
		{c: powCurve{"1/2.15", 1 / 2.15, roundFloat32}},
		{c: powCurve{"1/2.3", 1 / 2.3, roundFloat32}},
		{c: powCurve{"1/1.9", 1 / 1.9, roundFloat32}},
	}
	base := len(jobs)
	for _, j := range jobs {
		j.stride = 101
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 64; i++ {
		g := []float64{2.2, 2.15, 2.3, 1.9}[i%4] * (1 + float64(0.06*(rng.Float64()-0.5)))
		jobs = append(jobs, &job{c: powCurve{"jittered", 1 / g, roundFloat32}, stride: 10007})
	}
	next := make(chan *job, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j.n, j.fb = sweepPowCurve(t, j.c, j.stride)
			}
		}()
	}
	wg.Wait()
	jittered := &job{c: powCurve{name: "64 jittered exponents"}}
	for _, j := range jobs[base:] {
		jittered.n += j.n
		jittered.fb += j.fb
	}
	for _, j := range append(jobs[:base], jittered) {
		share := float64(j.fb) / float64(j.n)
		t.Logf("%s: %d inputs, %d fall back (%.2g)", j.c.name, j.n, j.fb, share)
		if share >= 1e-4 {
			t.Errorf("%s: %d of %d inputs fall back (%.2g), want under 1e-4", j.c.name, j.fb, j.n, share)
		}
	}
}

// TestPowBracketSpecialValues: outside the fast path the bracket is math.Pow
// itself, zeros, infinities, NaN and y ≤ 0 or y > 8 included, and so it is
// for results under 2⁻¹⁰²⁰; at the fast path's edges (the smallest
// float32, y = 8) it holds math.Pow, and x = 1 is math.Pow's exact 1.
func TestPowBracketSpecialValues(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, float64(math.SmallestNonzeroFloat32), math.SmallestNonzeroFloat64,
		0x1p-1022, math.MaxFloat32, math.Inf(1), math.Inf(-1), math.NaN(), -0.5, 1.5}
	ys := []float64{2.2, 1 / 2.4, 8, 0x1p-1074, 0, math.Copysign(0, -1), -1, -2.2, 8.000001, 100, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range xs {
		for _, y := range ys {
			p := math.Pow(x, y)
			lo, hi := PowBracket(x, y)
			fast := x >= 0x1p-1022 && x < 1 && y > 0 && y <= 8
			switch {
			case math.IsNaN(p):
				if !math.IsNaN(lo) || !math.IsNaN(hi) {
					t.Errorf("PowBracket(%v, %v) = [%v, %v], want NaN", x, y, lo, hi)
				}
			case !(lo <= p && p <= hi):
				t.Errorf("PowBracket(%v, %v) = [%v, %v] does not hold %v", x, y, lo, hi, p)
			case lo != hi && !fast:
				t.Errorf("PowBracket(%v, %v) = [%v, %v]: a fast path outside its domain", x, y, lo, hi)
			case lo == hi && fast && p > 0x1p-1000:
				t.Errorf("PowBracket(%v, %v) = [%v, %v]: no fast path inside its domain", x, y, lo, hi)
			}
			if got := PowFloat32(x, y); math.Float32bits(got) != math.Float32bits(float32(p)) {
				t.Errorf("PowFloat32(%v, %v) = %v, want %v", x, y, got, float32(p))
			}
		}
	}
}

// powRef is xʸ to about 2⁻⁵⁰ for 0 < x ≤ 1 and 0 < y ≤ 8, the reference of
// TestPowBracketError: math.Pow is accurate on x's mantissa m in [1, 2),
// and 2^(e·y) comes from e·y split exactly by a fused multiply-add.
func powRef(x, y float64) float64 {
	m, e := math.Frexp(x) // x = m·2ᵉ, m in [½, 1)
	m, ey := 2*m, float64(e-1)
	h := ey * y
	l := math.FMA(ey, y, -h)
	n := math.Round(h)
	return math.Ldexp(math.Pow(m, y)*math.Exp2((h-n)+l), int(n))
}

// TestPowBracketError holds the fast path's own error — half the bracket's
// width spent, not the width — under 2⁻⁴⁶, far inside the 2⁻³⁸ widening,
// over the whole fast path: x log-uniform on [2⁻¹⁰⁰⁰, 1], y uniform on
// (0, 8]. math.Pow would be no reference here: near x = 2⁻¹⁰⁰⁰ its own
// error reaches 2⁻⁴⁴.
func TestPowBracketError(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	worst := 0.0
	for i := 0; i < 200000; i++ {
		x := math.Exp2(-1000 * rng.Float64())
		y := 8 * (1 - rng.Float64())
		lo, hi := PowBracket(x, y)
		if lo == hi {
			continue
		}
		p := float64(lo/(1-0x1p-38)/2) + float64(hi/(1+0x1p-38)/2)
		if err := math.Abs(p/powRef(x, y) - 1); err > worst {
			worst = err
			if err > 0x1p-46 {
				t.Fatalf("PowBracket(%v, %v): relative error %.3g > 2^-46", x, y, err)
			}
		}
	}
	t.Logf("worst relative error 2^%.2f", math.Log2(worst))
}

// FuzzPowBracket holds the bracket to math.Pow on any (x, y) bits.
func FuzzPowBracket(f *testing.F) {
	for _, s := range [][2]float64{{0.5, 2.2}, {1, 1 / 2.4}, {1e-45, 8}, {0x1p-1022, 7.9}, {0.999, 0x1p-1074}, {0, 1}, {2, 2}} {
		f.Add(math.Float64bits(s[0]), math.Float64bits(s[1]))
	}
	f.Fuzz(func(t *testing.T, xb, yb uint64) {
		x, y := math.Float64frombits(xb), math.Float64frombits(yb)
		p := math.Pow(x, y)
		lo, hi := PowBracket(x, y)
		if math.IsNaN(p) {
			if !math.IsNaN(lo) || !math.IsNaN(hi) {
				t.Fatalf("PowBracket(%v, %v) = [%v, %v], want NaN", x, y, lo, hi)
			}
			return
		}
		if !(lo <= p && p <= hi) {
			t.Fatalf("PowBracket(%v, %v) = [%v, %v] does not hold math.Pow's %v", x, y, lo, hi, p)
		}
	})
}

func BenchmarkPowBracket(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		lo, hi := PowBracket(float64(i&1023+1)/1024, 2.2)
		s += lo + hi
	}
	sinkFloat = s
}

var sinkFloat float64
