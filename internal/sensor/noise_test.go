package sensor

import (
	"math"
	"math/rand"
	"testing"
)

// Noise must draw math/rand's stream bit for bit. The tests hold it to
// rand.New(rand.NewSource(seed)) call for call, in the capture's mix of
// calls: row fills of any length with Float64, Intn, Int63 and single
// NormFloat64 calls between them.

// streamSeeds are the seeds the stream test runs: the edges of Seed's
// reduction mod 2³¹−1 and of int64, then random ones.
func streamSeeds(n int) []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		m, -m, 2 * m, -2 * m, 1000 * m, m - 1, m + 1, -m + 1, -m - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MaxInt64 / m * m, math.MinInt64 / m * m,
		math.MaxInt32, math.MinInt32, 1 << 31, -1 << 31, 1 << 40,
	}
	rng := rand.New(rand.NewSource(501))
	for len(seeds) < n {
		s := rng.Int63()
		switch rng.Intn(4) {
		case 0:
			s = -s
		case 1:
			s = int64(rng.Intn(1 << 20)) // small seeds
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// drawStep is one call of a draw pattern: a row fill of fill normals, or
// with fill == 0 the scalar call op.
type drawStep struct {
	fill int
	op   byte
}

// compareStream runs pattern on a Noise and on math/rand seeded alike and
// fails at the first value whose bits differ.
func compareStream(t testing.TB, seed int64, pattern []drawStep) {
	t.Helper()
	var n Noise
	n.Seed(seed)
	r := rand.New(rand.NewSource(seed))
	buf := make([]float64, 256)
	for si, st := range pattern {
		if st.fill > 0 {
			dst := buf[:st.fill]
			n.NormFloat64s(dst)
			for k, got := range dst {
				if want := r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: fill of %d, normal %d = %v, math/rand %v", seed, si, st.fill, k, got, want)
				}
			}
			continue
		}
		var got, want uint64
		switch st.op % 6 {
		case 0:
			got, want = math.Float64bits(n.NormFloat64()), math.Float64bits(r.NormFloat64())
		case 1:
			got, want = math.Float64bits(n.Float64()), math.Float64bits(r.Float64())
		case 2:
			got, want = uint64(n.Int63()), uint64(r.Int63())
		case 3:
			m := 1 + int(st.op)*977 // mostly not a power of two
			if st.op&1 != 0 {
				m = 1<<30 + int(st.op)<<20 // rejects up to half its draws
			}
			got, want = uint64(n.Intn(m)), uint64(r.Intn(m))
		case 4:
			m := 1 << (st.op % 31)
			got, want = uint64(n.Intn(m)), uint64(r.Intn(m))
		case 5:
			// Above 2³¹ on a 64-bit int; a power of two with bit 6 set.
			m := math.MaxInt >> (st.op%8 + 1)
			if st.op&64 != 0 {
				m++
			}
			got, want = uint64(n.Intn(m)), uint64(r.Intn(m))
		}
		if got != want {
			t.Fatalf("seed %d step %d: op %d = %#x, math/rand %#x", seed, si, st.op%6, got, want)
		}
	}
}

// TestNoiseMatchesMathRand draws from 10⁴ seeds, each a pattern of row
// fills of 1 to 130 normals with scalar calls between them, about 1,200
// values a seed, on the dispatched kernels and on the Go loops.
func TestNoiseMatchesMathRand(t *testing.T) {
	seeds := streamSeeds(10000)
	if testing.Short() {
		seeds = seeds[:1000]
	}
	prng := rand.New(rand.NewSource(502))
	run := func(t *testing.T) {
		for _, seed := range seeds {
			var pattern []drawStep
			for total := 0; total < 1200; {
				if prng.Intn(3) == 0 {
					pattern = append(pattern, drawStep{op: byte(prng.Intn(256))})
					total++
					continue
				}
				f := 1 + prng.Intn(130)
				pattern = append(pattern, drawStep{fill: f})
				total += f
			}
			compareStream(t, seed, pattern)
		}
	}
	t.Run("dispatched", run)
	t.Run("portable", func(t *testing.T) { portable(func() { run(t) }) })
}

// TestNoiseReseedMatchesFresh re-seeds one Noise mid-block, as the capture
// arenas do, and holds each stream to a fresh math/rand source.
func TestNoiseReseedMatchesFresh(t *testing.T) {
	var n Noise
	buf := make([]float64, 300)
	for i, seed := range streamSeeds(200) {
		n.Seed(seed)
		r := rand.New(rand.NewSource(seed))
		n.NormFloat64s(buf[:i%300+1])
		for k, got := range buf[:i%300+1] {
			if want := r.NormFloat64(); got != want {
				t.Fatalf("seed %d normal %d = %v, math/rand %v", seed, k, got, want)
			}
		}
	}
}

// FuzzNoiseStream holds Noise to math/rand for a fuzzed seed and draw
// pattern: a byte below 128 is a row fill of that many normals plus one,
// any other a scalar call.
func FuzzNoiseStream(f *testing.F) {
	f.Add(int64(0), []byte{63, 200, 129, 1, 255})
	f.Add(int64(math.MinInt64), []byte{127, 127, 127, 127, 127, 130})
	f.Add(int64(int32max), []byte{0, 131, 132, 133, 134, 135, 100})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		var pattern []drawStep
		for _, b := range raw {
			if b < 128 {
				pattern = append(pattern, drawStep{fill: int(b) + 1})
			} else {
				pattern = append(pattern, drawStep{op: b})
			}
		}
		// Past the end of the pattern, two full generator cycles of normals.
		pattern = append(pattern, drawStep{fill: 256}, drawStep{fill: 256}, drawStep{fill: 256}, drawStep{fill: 256}, drawStep{fill: 256})
		compareStream(t, seed, pattern)
	})
}

// TestVectorNormFastMatchesGo feeds the fast path's vector kernel and its
// Go loop crafted draws: j = MinInt32, MaxInt32, 0 and ±1, the base strip's
// i = 0 on both sides of kn[0], and for every strip the js within 512 of
// ±kn[i] (|j| == kn[i] included wherever j & 0x7f == i allows it), each at
// every lane of a vector behind a run of draws on the fast path. The words'
// other bits are random.
func TestVectorNormFastMatchesGo(t *testing.T) {
	js := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, 0, 1, -1, 128, -128}
	for i := int32(0); i < 128; i++ {
		for _, target := range []int64{int64(kn[i]), -int64(kn[i])} {
			for j := target - 512; j <= target+512; j++ {
				if j >= math.MinInt32 && j <= math.MaxInt32 && int32(j)&0x7f == i {
					js = append(js, int32(j))
				}
			}
		}
	}
	exact := 0
	for _, j := range js {
		if absInt32(j) == kn[j&0x7f] {
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("no crafted draw sits on |j| == kn[i]")
	}
	rng := rand.New(rand.NewSource(503))
	word := func(j int32) uint64 {
		return uint64(uint32(j))<<31 | rng.Uint64()&(1<<31-1) | rng.Uint64()&(1<<63)
	}
	fast := func() uint64 { // a draw well inside its strip
		for {
			j := int32(rng.Uint32())
			if i := j & 0x7f; absInt32(j) < kn[i]/2 {
				return word(j)
			}
		}
	}
	for _, j := range js {
		for lane := 0; lane < 8; lane++ {
			src := make([]uint64, 12)
			for k := range src {
				src[k] = fast()
			}
			src[lane] = word(j)
			got, want := make([]float64, len(src)), make([]float64, len(src))
			kg := normFast(got, src)
			var kw int
			portable(func() { kw = normFast(want, src) })
			// math/rand's test, |j| as a uint32 against kn[i], written out.
			mag, wantK := uint32(j), len(src)
			if j < 0 {
				mag = uint32(-int64(j))
			}
			if mag >= kn[j&0x7f] {
				wantK = lane
			}
			if kg != wantK || kw != wantK {
				t.Fatalf("j %d at lane %d: %d draws on the fast path, the Go loop %d, want %d", j, lane, kg, kw, wantK)
			}
			for k := 0; k < kg; k++ {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("j %d at lane %d: normal %d = %v, the Go loop %v", j, lane, k, got[k], want[k])
				}
			}
		}
	}
}

// TestNoiseBlockAddMatchesGo runs the generator's block add on both paths
// over every block length a refill makes and the remainders around them.
func TestNoiseBlockAddMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	for b := 1; b <= rngTap; b++ {
		src, dst := make([]uint64, b), make([]uint64, b)
		for k := range src {
			src[k], dst[k] = rng.Uint64(), rng.Uint64()
		}
		want := append([]uint64(nil), dst...)
		portable(func() { addBlock(want, src) })
		addBlock(dst, src)
		for k := range dst {
			if dst[k] != want[k] {
				t.Fatalf("block of %d, word %d = %#x, the Go loop %#x", b, k, dst[k], want[k])
			}
		}
	}
}

// TestVectorSeedMatchesGo holds the seeding twin to its Go loop, register
// word for register word, over the stream test's seeds.
func TestVectorSeedMatchesGo(t *testing.T) {
	var got, want Noise
	for _, seed := range streamSeeds(10000) {
		got.Seed(seed)
		portable(func() { want.Seed(seed) })
		if got.vec != want.vec {
			t.Fatalf("seed %d: the register differs from the Go loop's", seed)
		}
	}
}
