package sensor

import "math"

// Noise is the sensor's own random source: the stream of
// rand.New(rand.NewSource(seed)) from Go's math/rand, bit for bit, for the
// methods a capture and its callers draw through (Seed, Int63, Float64,
// Intn and NormFloat64), computed faster. Every golden pins that stream, so
// Noise changes how it is computed, never what it draws:
//
//   - Seed computes the generator's 1,841 seeding values x₀·48271ᵏ mod
//     (2³¹−1) each from a power table, instead of chaining them one division
//     after another.
//   - The additive lagged-Fibonacci step v[feed] += v[tap] (lags 607 and
//     273) runs a block of up to 273 steps at a time: no step of a block
//     reads what another writes.
//   - NormFloat64s runs the ziggurat's fast path over a block of draws and
//     hands the first draw that leaves it to math/rand's own scalar body.
//
// The zero Noise is not seeded; call Seed first. A Noise is not safe for
// concurrent use.
type Noise struct {
	// vec is math/rand's feedback register stored back to front, so that
	// the generator walks it upwards: step s (counted from the seed) reads
	// vec[s mod 607], adds it to vec[(s+273) mod 607] and draws the sum.
	vec [rngLen]uint64
	// tap is where the next block's first step reads; vec[next:end] are
	// drawn outputs not yet consumed, in draw order.
	tap, next, end int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	rn       = 3.442619855899 // the ziggurat's tail start
)

// seedPow[s][r] is the power 48271ᵏ mod (2³¹−1) whose product with the
// seed makes the s-th of vec[r]'s three parts: math/rand's seeding runs 20
// steps of x ↦ 48271·x mod (2³¹−1), then three a register word, so word i of
// its register takes k = 21+3i, 22+3i and 23+3i.
var seedPow = func() (t [3][rngLen]uint64) {
	p := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		p = p * 48271 % int32max
		if k > 20 {
			t[(k-21)%3][rngLen-1-(k-21)/3] = p
		}
	}
	return t
}()

// mulMod is x·p mod (2³¹−1) by two Mersenne folds (2³¹ ≡ 1) in place of a
// division. x and p lie in [1, 2³¹−2], so x·p < 2⁶², the first fold leaves
// less than 2³², and the second a value in [1, 2³¹−1] congruent to x·p;
// 2³¹−1 is prime and divides neither factor, so it is never that value.
func mulMod(x, p uint64) uint64 {
	v := x * p
	v = v&int32max + v>>31
	return v&int32max + v>>31
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (n *Noise) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for r := seedVector(&n.vec, x); r < rngLen; r++ {
		n.vec[r] = mulMod(x, seedPow[0][r])<<40 ^ mulMod(x, seedPow[1][r])<<20 ^ mulMod(x, seedPow[2][r]) ^ uint64(rngCooked[rngLen-1-r])
	}
	n.tap, n.next, n.end = 0, 0, 0
}

// refill runs the generator's next block of steps: as many as fit before
// either the read or the write index wraps, and at most 273.
func (n *Noise) refill() {
	t, f := n.tap, n.tap+rngTap
	if f >= rngLen {
		f -= rngLen
	}
	b := min(rngLen-max(t, f), rngTap)
	addBlock(n.vec[f:f+b], n.vec[t:t+b])
	n.tap = (t + b) % rngLen
	n.next, n.end = f, f+b
}

// addBlock is one block of generator steps, dst[k] += src[k].
func addBlock(dst, src []uint64) {
	k := addBlockVector(dst, src)
	src = src[:len(dst)]
	for ; k < len(dst); k++ {
		dst[k] += src[k]
	}
}

func (n *Noise) uint64() uint64 {
	if n.next == n.end {
		n.refill()
	}
	u := n.vec[n.next]
	n.next++
	return u
}

// Int63 is rand.Rand.Int63.
func (n *Noise) Int63() int64 { return int64(n.uint64() & rngMask) }

// Float64 is rand.Rand.Float64, resampling on the rare round-up to 1.
func (n *Noise) Float64() float64 {
	for {
		if f := float64(n.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn.
func (n *Noise) Intn(m int) int {
	if m <= 0 {
		panic("invalid argument to Intn")
	}
	if m <= int32max {
		return int(n.int31n(int32(m)))
	}
	return int(n.int63n(int64(m)))
}

// int31n is rand.Rand.Int31n for m > 0.
func (n *Noise) int31n(m int32) int32 {
	if m&(m-1) == 0 {
		return int32(n.Int63()>>32) & (m - 1)
	}
	top := int32(int32max - (1<<31)%uint32(m))
	v := int32(n.Int63() >> 32)
	for v > top {
		v = int32(n.Int63() >> 32)
	}
	return v % m
}

// int63n is rand.Rand.Int63n for m > 0.
func (n *Noise) int63n(m int64) int64 {
	if m&(m-1) == 0 {
		return n.Int63() & (m - 1)
	}
	top := int64(rngMask - (1<<63)%uint64(m))
	v := n.Int63()
	for v > top {
		v = n.Int63()
	}
	return v % m
}

// NormFloat64 is rand.Rand.NormFloat64.
func (n *Noise) NormFloat64() float64 {
	for {
		if x, ok := n.normal(int32(n.Int63() >> 31)); ok {
			return x
		}
	}
}

// NormFloat64s fills dst with the next len(dst) normals: the values that
// many NormFloat64 calls would return, in order.
func (n *Noise) NormFloat64s(dst []float64) {
	for len(dst) > 0 {
		if n.next == n.end {
			n.refill()
		}
		src := n.vec[n.next:n.end]
		if len(src) > len(dst) {
			src = src[:len(dst)]
		}
		k := normFast(dst, src)
		n.next += k
		if k == len(src) {
			dst = dst[k:]
			continue
		}
		// Draw k leaves the fast path; math/rand's scalar body takes it, and
		// what further draws it needs, from here.
		n.next++
		x, ok := n.normal(int32(src[k] >> 31))
		if !ok {
			x = n.NormFloat64()
		}
		dst[k] = x
		dst = dst[k+1:]
	}
}

// normFast writes the normals of the leading draws of src that take the
// ziggurat's fast path, |j| < kn[i], and returns how many that was. It may
// write dst past them (the vector kernel stores whole vectors); the caller
// rewrites those slots. len(dst) ≥ len(src).
func normFast(dst []float64, src []uint64) int {
	k := normFastVector(dst, src)
	dst = dst[:len(src)]
	for ; k < len(src); k++ {
		j := int32(src[k] >> 31)
		i := j & 0x7F
		if absInt32(j) >= kn[i] {
			break
		}
		dst[k] = float64(j) * float64(wn[i])
	}
	return k
}

// normal is one try of math/rand's ziggurat on the draw j =
// int32(Uint32()): the normal, or false where the try is rejected and
// NormFloat64 draws again. The tail's and the wedge test's products are
// rounded before they are added, which is math/rand's arithmetic wherever
// the compiler does not fuse the two (amd64, 386) and keeps arm64 from
// fusing them here.
func (n *Noise) normal(j int32) (float64, bool) {
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		return x, true
	}
	if i == 0 {
		// The base strip's tail.
		for {
			x = float64(-math.Log(n.Float64()) * (1.0 / rn))
			y := -math.Log(n.Float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return rn + x, true
		}
		return -rn - x, true
	}
	return x, fn[i]+float32(float32(n.Float64())*(fn[i-1]-fn[i])) < float32(math.Exp(-.5*x*x))
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
