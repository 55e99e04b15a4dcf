package imaging

import (
	"math"
	"math/rand"
	"testing"
)

// clampInt is the edge clamp of the reference filters.
func clampInt(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

// refGaussianBlur is the pre-split blur: edge clamping on every tap of both
// passes. The interior/border split in GaussianBlur must match it bit for
// bit (identical kernel, identical ascending-k accumulation order).
func refGaussianBlur(im *Image, sigma float64) *Image {
	if sigma <= 0 {
		return im.Clone()
	}
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float32, 2*radius+1)
	var sum float64
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		kernel[i+radius] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range kernel {
		kernel[i] *= inv
	}

	n := im.W * im.H
	tmp := make([]float32, 3*n)
	out := New(im.W, im.H)
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n:]
		dst := tmp[p*n:]
		for y := 0; y < im.H; y++ {
			row := src[y*im.W : (y+1)*im.W]
			drow := dst[y*im.W : (y+1)*im.W]
			for x := 0; x < im.W; x++ {
				var s float32
				for k := -radius; k <= radius; k++ {
					xx := clampInt(x+k, 0, im.W-1)
					s += row[xx] * kernel[k+radius]
				}
				drow[x] = s
			}
		}
	}
	for p := 0; p < 3; p++ {
		src := tmp[p*n:]
		dst := out.Pix[p*n:]
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var s float32
				for k := -radius; k <= radius; k++ {
					yy := clampInt(y+k, 0, im.H-1)
					s += src[yy*im.W+x] * kernel[k+radius]
				}
				dst[y*im.W+x] = s
			}
		}
	}
	return out
}

// TestGaussianBlurMatchesReference pins the split blur to the clamped
// original across sigmas — radii 1 to 4, whose interior sums start from
// their first product, and 5, whose sums start from +0 — odd/even sizes, and
// frames smaller than the kernel itself. Samples are non-negative, as every
// blurred plane in the pipeline is: a sum that starts from its first product
// differs from the reference's, which starts from +0, only if that product
// is −0.
func TestGaussianBlurMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := [][2]int{{64, 64}, {32, 32}, {17, 13}, {5, 7}, {3, 3}, {2, 9}, {1, 1}}
	sigmas := []float64{0.23, 0.3, 0.55, 0.8, 1.0, 1.1, 1.3, 1.5} // radii 1 1 2 3 3 4 4 5
	for _, sz := range sizes {
		im := New(sz[0], sz[1])
		for i := range im.Pix {
			im.Pix[i] = float32(rng.Float64())
		}
		for _, sigma := range sigmas {
			got := GaussianBlur(im, sigma)
			want := refGaussianBlur(im, sigma)
			for i, v := range got.Pix {
				if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("%dx%d sigma %v: pixel %d = %v, reference %v", sz[0], sz[1], sigma, i, v, want.Pix[i])
				}
			}
		}
	}
}

// refBoxBlurInto is the retired box filter, verbatim: four bounds tests and
// a tap counter per tap, for every sample and radius.
func refBoxBlurInto(dst, im *Image, r int) *Image {
	if r <= 0 {
		copy(dst.Pix, im.Pix)
		return dst
	}
	n := im.W * im.H
	out := dst
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n:]
		dst := out.Pix[p*n:]
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var s float32
				cnt := 0
				for dy := -r; dy <= r; dy++ {
					yy := y + dy
					if yy < 0 || yy >= im.H {
						continue
					}
					for dx := -r; dx <= r; dx++ {
						xx := x + dx
						if xx < 0 || xx >= im.W {
							continue
						}
						s += src[yy*im.W+xx]
						cnt++
					}
				}
				dst[y*im.W+x] = s / float32(cnt)
			}
		}
	}
	return out
}

// TestBoxBlurMatchesReference pins the clamp-free radius-1 interior (and the
// shared border body) to the retired loop, on frames down to smaller than
// the window and on zeros of both signs: the sum starts from +0, so nine −0
// taps average to +0 in both.
func TestBoxBlurMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sz := range [][2]int{{64, 64}, {17, 13}, {5, 7}, {3, 3}, {2, 9}, {9, 2}, {1, 1}} {
		noisy, zeros := New(sz[0], sz[1]), New(sz[0], sz[1])
		for i := range noisy.Pix {
			noisy.Pix[i] = rng.Float32()*2 - 0.5
			zeros.Pix[i] = []float32{0, negZero, negZero}[rng.Intn(3)]
		}
		for _, im := range []*Image{noisy, zeros} {
			for r := 0; r <= 3; r++ {
				got := BoxBlurInto(New(im.W, im.H), im, r)
				want := refBoxBlurInto(New(im.W, im.H), im, r)
				for i, v := range got.Pix {
					if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("%dx%d r=%d: sample %d = %v, reference %v", sz[0], sz[1], r, i, v, want.Pix[i])
					}
				}
			}
		}
	}
}

// onBothKernelPaths runs f as this machine dispatches the blur and again on
// the Go loop.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("dispatched", f)
	t.Run("portable", func(t *testing.T) { portable(func() { f(t) }) })
}

// TestGaussianBlurFramesSmallerThanKernel is what end-repeated padding can get
// wrong where per-tap clamping cannot: frames narrower or shorter than the
// radius, down to one sample, in which a padded row is mostly padding and the
// rows repeated above and below outnumber the frame's own.
func TestGaussianBlurFramesSmallerThanKernel(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for _, sz := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 3}, {3, 2}, {4, 40}, {40, 4}} {
			im := New(sz[0], sz[1])
			for i := range im.Pix {
				im.Pix[i] = rng.Float32()
			}
			for _, sigma := range []float64{0.3, 0.9, 1.3, 1.9, 2.5} { // radii 1 3 4 6 8
				got, want := GaussianBlur(im, sigma), refGaussianBlur(im, sigma)
				for i, v := range got.Pix {
					if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("%dx%d sigma %v: pixel %d = %v, reference %v", sz[0], sz[1], sigma, i, v, want.Pix[i])
					}
				}
			}
		}
	})
}

// TestGaussianBlurNegativeZeroWindows pins the one input on which the start
// of a sum shows. Over a frame of -0 every product is -0: at kernel width 3
// a sum whose window lies inside the frame starts from its first product and
// stays -0, one at a clamped border starts from +0 and comes out +0; at
// kernel width 11 every sum starts from +0.
func TestGaussianBlurNegativeZeroWindows(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		const w, h = 21, 15
		im := New(w, h)
		for i := range im.Pix {
			im.Pix[i] = negZero
		}
		for _, c := range []struct {
			sigma  float64
			radius int
			inside float32 // a sum whose window lies inside the frame
		}{{0.3, 1, negZero}, {1.5, 5, 0}} {
			got := GaussianBlur(im, c.sigma)
			for i, v := range got.Pix {
				x, y := i%w, i/w%h
				want := float32(0)
				if x >= c.radius && x < w-c.radius && y >= c.radius && y < h-c.radius {
					want = c.inside
				}
				if math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("kernel width %d: sample (%d,%d) has bits %#x, want %#x", 2*c.radius+1, x, y, math.Float32bits(v), math.Float32bits(want))
				}
			}
		}
	})
}
