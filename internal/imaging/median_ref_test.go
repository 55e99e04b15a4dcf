package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestMedian9MatchesSort cross-checks the reference's sorting network
// against a full sort, including ties.
func TestMedian9MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		var w [9]float32
		for i := range w {
			w[i] = float32(rng.Intn(5)) // small range forces many ties
		}
		if trial%2 == 0 {
			for i := range w {
				w[i] = rng.Float32()
			}
		}
		sorted := append([]float32(nil), w[:]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if got := refMedian9(w); got != sorted[4] {
			t.Fatalf("trial %d: refMedian9(%v) = %v, want %v", trial, w, got, sorted[4])
		}
	}
}

// TestMedianDenoiseBorders checks the border path agrees with the clamped
// window definition on a small deterministic image.
func TestMedianDenoiseBorders(t *testing.T) {
	im := New(4, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	out := MedianDenoise3Into(New(im.W, im.H), im)
	n := im.W * im.H
	for p := 0; p < 3; p++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var window []float32
				for dy := -1; dy <= 1; dy++ {
					yy := clampInt(y+dy, 0, im.H-1)
					for dx := -1; dx <= 1; dx++ {
						xx := clampInt(x+dx, 0, im.W-1)
						window = append(window, im.Pix[p*n+yy*im.W+xx])
					}
				}
				sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
				if got := out.Pix[p*n+y*im.W+x]; got != window[4] {
					t.Fatalf("p=%d (%d,%d): %v, want %v", p, x, y, got, window[4])
				}
				window = window[:0]
			}
		}
	}
}

// refMedianDenoise3Into is the retired filter, verbatim: a 9-sample window
// gathered per output (clamped at the borders) and Paeth's network run as
// data-dependent float compare-and-swaps.
func refMedianDenoise3Into(dst, im *Image) *Image {
	n := im.W * im.H
	w := im.W
	out := dst
	var window [9]float32
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n:]
		dst := out.Pix[p*n:]
		for y := 0; y < im.H; y++ {
			for x := 0; x < w; x++ {
				if x >= 1 && x < w-1 && y >= 1 && y < im.H-1 {
					i := y*w + x
					window = [9]float32{
						src[i-w-1], src[i-w], src[i-w+1],
						src[i-1], src[i], src[i+1],
						src[i+w-1], src[i+w], src[i+w+1],
					}
				} else {
					k := 0
					for dy := -1; dy <= 1; dy++ {
						yy := clampInt(y+dy, 0, im.H-1)
						for dx := -1; dx <= 1; dx++ {
							xx := clampInt(x+dx, 0, w-1)
							window[k] = src[yy*w+xx]
							k++
						}
					}
				}
				dst[y*w+x] = refMedian9(window)
			}
		}
	}
	return out
}

// refMedian9 returns the median of 9 values with Paeth's 19-exchange sorting
// network (Graphics Gems).
func refMedian9(p [9]float32) float32 {
	p0, p1, p2, p3, p4, p5, p6, p7, p8 := p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8]
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	if p4 > p5 {
		p4, p5 = p5, p4
	}
	if p7 > p8 {
		p7, p8 = p8, p7
	}
	if p0 > p1 {
		p0, p1 = p1, p0
	}
	if p3 > p4 {
		p3, p4 = p4, p3
	}
	if p6 > p7 {
		p6, p7 = p7, p6
	}
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	if p4 > p5 {
		p4, p5 = p5, p4
	}
	if p7 > p8 {
		p7, p8 = p8, p7
	}
	if p0 > p3 {
		p0, p3 = p3, p0
	}
	if p5 > p8 {
		p5, p8 = p8, p5
	}
	if p4 > p7 {
		p4, p7 = p7, p4
	}
	if p3 > p6 {
		p3, p6 = p6, p3
	}
	if p1 > p4 {
		p1, p4 = p4, p1
	}
	if p2 > p5 {
		p2, p5 = p5, p2
	}
	if p4 > p7 {
		p4, p7 = p7, p4
	}
	if p4 > p2 {
		p4, p2 = p2, p4
	}
	if p6 > p4 {
		p6, p4 = p4, p6
	}
	if p4 > p2 {
		p4, p2 = p2, p4
	}
	return p4
}

// negZero is −0, the one value on which a sum from +0 or an integer-ordered
// sort can part from a float comparison.
var negZero = float32(math.Copysign(0, -1))

// medianTestImages are the inputs the new filter is diffed on: noise, heavy
// ties, a constant, mixed signs, infinities and every degenerate size. None
// puts −0 and +0 in one window; TestMedianDenoise3SignedZeros does.
func medianTestImages() map[string]*Image {
	rng := rand.New(rand.NewSource(4))
	fill := func(w, h int, f func() float32) *Image {
		im := New(w, h)
		for i := range im.Pix {
			im.Pix[i] = f()
		}
		return im
	}
	inf := float32(math.Inf(1))
	images := map[string]*Image{
		"ties":     fill(32, 32, func() float32 { return float32(rng.Intn(5)) / 4 }),
		"constant": fill(9, 8, func() float32 { return 0.25 }),
		"signed":   fill(16, 16, func() float32 { return float32(rng.Intn(5)-2) / 2 }), // −1 … +0 … 1
		"all +0":   fill(5, 5, func() float32 { return 0 }),
		"all -0":   fill(5, 5, func() float32 { return negZero }),
		"inf":      fill(8, 8, func() float32 { return []float32{-inf, -1, 1, inf}[rng.Intn(4)] }),
	}
	for _, sz := range [][2]int{{64, 64}, {17, 13}, {1, 1}, {2, 2}, {3, 3}, {1, 7}, {2, 7}, {7, 1}, {7, 2}, {3, 2}, {4, 3}} {
		images[fmt.Sprintf("noisy %dx%d", sz[0], sz[1])] = fill(sz[0], sz[1], rng.Float32)
	}
	return images
}

// TestMedianDenoise3MatchesReference diffs the column-sorted filter against
// the retired one bit for bit.
func TestMedianDenoise3MatchesReference(t *testing.T) {
	for name, im := range medianTestImages() {
		got := MedianDenoise3Into(New(im.W, im.H), im)
		want := refMedianDenoise3Into(New(im.W, im.H), im)
		for i, v := range got.Pix {
			if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%s: sample %d = %v (%#x), reference %v (%#x)", name, i, v, math.Float32bits(v), want.Pix[i], math.Float32bits(want.Pix[i]))
			}
		}
	}
}

// TestMedianDenoise3SignedZeros pins what the filter does where it may
// differ from the reference: in a window holding both zeros the reference
// returns whichever its network left in the middle (it compares −0 == +0),
// the filter sorts −0 below +0. The two agree as numbers everywhere, and the
// filter's bits are those of the median under the total order of orderKey.
func TestMedianDenoise3SignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := New(24, 24)
	for i := range im.Pix {
		im.Pix[i] = []float32{-1, negZero, 0, 1}[rng.Intn(4)]
	}
	got := MedianDenoise3Into(New(im.W, im.H), im)
	ref := refMedianDenoise3Into(New(im.W, im.H), im)
	n := im.W * im.H
	for i, v := range got.Pix {
		if v != ref.Pix[i] {
			t.Fatalf("sample %d = %v, reference %v", i, v, ref.Pix[i])
		}
		p, x, y := i/n, i%n%im.W, i%n/im.W
		var window []int32
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				window = append(window, orderKey(im.Pix[p*n+clampInt(y+dy, 0, im.H-1)*im.W+clampInt(x+dx, 0, im.W-1)]))
			}
		}
		sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
		if want := fromOrderKey(window[4]); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("sample %d = %#x, total-order median %#x", i, math.Float32bits(v), math.Float32bits(want))
		}
	}
}
