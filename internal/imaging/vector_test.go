package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Every vector kernel has a Go twin it must match bit for bit. The tests
// here run one computation on both — the kernels as this machine dispatches
// them, then with useVector forced off — over the frame shapes where a lane
// mask, a padded border or a vector tail could go wrong and over the values
// where a re-expressed clamp, rounding or conversion could. On a build or
// machine without vector kernels both runs take the Go path and the tests
// pass trivially; the GOARCH=386 CI leg runs them to keep that build
// compiling.

// portable runs f with the vector kernels forced off.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

// TestReferenceSuitesOnPortableKernels re-runs the filters' and the resize's
// reference diffs on the Go loops of a machine whose first run of them took
// the vector kernels.
func TestReferenceSuitesOnPortableKernels(t *testing.T) {
	if !useVector {
		t.Skip("no vector kernels here: every other test already ran the Go loops")
	}
	portable(func() {
		t.Run("GaussianBlurMatchesReference", TestGaussianBlurMatchesReference)
		t.Run("BoxBlurMatchesReference", TestBoxBlurMatchesReference)
		t.Run("MedianDenoise3MatchesReference", TestMedianDenoise3MatchesReference)
		t.Run("MedianDenoise3SignedZeros", TestMedianDenoise3SignedZeros)
		t.Run("ResizeMatchesReference", TestResizeMatchesReference)
		t.Run("BatchTensorIntoMatchesResizeThenBatchTensor", TestBatchTensorIntoMatchesResizeThenBatchTensor)
	})
}

var (
	negZero32 = math.Float32frombits(1 << 31)
	posInf    = float32(math.Inf(1))
	// cpuNaN is the NaN the processor makes of Inf-Inf or 0·Inf; math.NaN
	// has the sign bit clear. Where a kernel adds or multiplies two samples,
	// its test feeds this NaN alone: which of two different NaN operands an
	// operation returns depends on the operand order the compiler chose,
	// which no twin can promise to match.
	cpuNaN = math.Float32frombits(0xffc00000)
)

// oddSamples are the values where a re-expressed comparison, conversion or
// rounding could differ from Go's: zeros of both signs, denormals, the clamp
// edges and their neighbours, magnitudes past every integer conversion,
// infinities and the processor's NaN.
func oddSamples() []float32 {
	return []float32{0, negZero32, 1e-45, -1e-45, 1e-39, -1e-39, 0.5, 1, 1.0000001, 0.99999994, -0.25, 3.9, 4, 4.1,
		8.4e6, 1e9, 2.2e9, -2.2e9, 1e19, 1e30, -1e30, math.MaxFloat32, -math.MaxFloat32, posInf, -posInf, cpuNaN}
}

// unaligned returns an n-element slice that starts off elements into its
// allocation, so that no kernel can lean on 32-byte alignment.
func unaligned(n, off int) []float32 { return make([]float32, n+off)[off:] }

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: sample %d = %v (%#x), the Go loop gives %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// randomImage fills a w×h image with samples in [-0.25, 1.25) and, when odd
// is set, about one odd sample in eight.
func randomImage(rng *rand.Rand, w, h int, odd bool) *Image {
	im := &Image{W: w, H: h, Pix: unaligned(3*w*h, 1+rng.Intn(7))}
	specials := oddSamples()
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()*1.5 - 0.25
		if odd && rng.Intn(8) == 0 {
			im.Pix[i] = specials[rng.Intn(len(specials))]
		}
	}
	return im
}

// TestVectorGaussianBlurMatchesGo sweeps the blur over every width from 1 to
// 131 and height from 1 to 19 at radii 1 to 6: rows of none to four blocks of
// four vectors, the rest of every length after them, frames narrower than a
// vector and narrower or shorter than the kernel, the
// four kernel widths whose interior sums start from their first product and
// two whose sums start from +0. The second image of each size holds odd
// samples, zeros of both signs among them: a window of -0 alone is where a
// sum started from +0 and one started from its first product part.
func TestVectorGaussianBlurMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	sigmas := []float64{0.3, 0.6, 0.9, 1.2, 1.5, 1.9} // radii 1 to 6
	for w := 1; w <= 131; w++ {
		for h := 1; h <= 19; h += 1 + w%3 {
			for _, odd := range []bool{false, true} {
				im := randomImage(rng, w, h, odd)
				if odd {
					for i := range im.Pix[:w*h] { // one plane of zeros, mostly negative
						im.Pix[i] = []float32{negZero32, negZero32, negZero32, 0}[rng.Intn(4)]
					}
				}
				sigma := sigmas[rng.Intn(len(sigmas))]
				got := GaussianBlurInto(&Image{W: w, H: h, Pix: unaligned(3*w*h, 3)}, im, sigma)
				want := New(w, h)
				portable(func() { GaussianBlurInto(want, im, sigma) })
				sameBits(t, fmt.Sprintf("%dx%d sigma %v odd=%v", w, h, sigma, odd), got.Pix, want.Pix)
			}
		}
	}
}

// TestVectorClampMatchesGo runs Image.Clamp in place over lengths with every
// vector remainder, on random and on odd samples; a NaN of either sign and a
// -0 must come through untouched.
func TestVectorClampMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for w := 1; w <= 67; w++ {
		im := randomImage(rng, w, 1+w%5, w%2 == 0)
		im.Pix[rng.Intn(len(im.Pix))] = float32(math.NaN())
		want := im.Clone()
		portable(func() { want.Clamp() })
		sameBits(t, fmt.Sprintf("%dx%d", im.W, im.H), im.Clamp().Pix, want.Pix)
	}
}

// TestVectorColourConversionsMatchGo converts random and odd images to YCbCr
// and back through the 8-bit snap on both paths. The odd ones hold sums the
// vector conversion hands back to the Go loop — 2³¹ and beyond, which Go's
// 64-bit truncation turns into level 255 and a 32-bit one would turn into 0 —
// at every position of a vector and in the tail.
func TestVectorColourConversionsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for w := 1; w <= 67; w++ {
		h := 1 + w%7
		n := w * h
		for _, odd := range []bool{false, true} {
			what := fmt.Sprintf("%dx%d odd=%v", w, h, odd)
			im := randomImage(rng, w, h, odd)
			var got, want [3][]float32
			for p := range got {
				got[p], want[p] = unaligned(n, p+2), make([]float32, n)
			}
			RGBToYCbCrInto(im, got[0], got[1], got[2])
			portable(func() { RGBToYCbCrInto(im, want[0], want[1], want[2]) })
			for p := range got {
				sameBits(t, fmt.Sprintf("RGBToYCbCrInto %s plane %d", what, p), got[p], want[p])
			}

			yc := &YCbCr{W: w, H: h, Y: im.Pix[:n], Cb: im.Pix[n : 2*n], Cr: im.Pix[2*n:]}
			back := yc.ToRGBQuant8Into(&Image{W: w, H: h, Pix: unaligned(3*n, 5)})
			wantBack := New(w, h)
			portable(func() { yc.ToRGBQuant8Into(wantBack) })
			sameBits(t, "ToRGBQuant8Into "+what, back.Pix, wantBack.Pix)
		}
	}
}

// TestVectorQuant8HandBack pins the one input class the colour kernel must
// not convert itself: a luma whose scaled sum is 2³¹ or more, in one lane of
// an otherwise ordinary plane. quant8 makes level 255 of it up to 2⁶³ and
// level 0 beyond, on every GOARCH; the samples before that vector come from the
// kernel, the rest from the Go loop, and all of them match.
func TestVectorQuant8HandBack(t *testing.T) {
	const w, h = 40, 1
	for _, c := range []struct{ luma, level float32 }{{8.5e6, 1}, {1e9, 1}, {3e16, 1}, {1e19, 0}, {1e30, 0}, {posInf, 0}} {
		for at := 0; at < w; at++ {
			yc := &YCbCr{W: w, H: h, Y: make([]float32, w), Cb: make([]float32, w), Cr: make([]float32, w)}
			for i := range yc.Y {
				yc.Y[i] = float32(i) / w
			}
			yc.Y[at] = c.luma
			got, want := yc.ToRGBQuant8Into(New(w, h)), New(w, h)
			portable(func() { yc.ToRGBQuant8Into(want) })
			sameBits(t, fmt.Sprintf("luma %v at %d", c.luma, at), got.Pix, want.Pix)
			if got.Pix[at] != c.level {
				t.Fatalf("luma %v at %d converts to %v, want %v", c.luma, at, got.Pix[at], c.level)
			}
		}
	}
}

// TestVectorFiltersMatchGo runs the 3×3 median and box filters over every
// width from 1 to 70 and heights from 1 to 40, and the exact 2:1 downscale
// — through Resize and into the model's input tensor — over every even size
// among them: rows shorter than a vector, row lengths with every vector
// remainder, one- and two-row frames where the clamped rows coincide. The
// second image of each size holds odd samples; the median orders them by
// their bits, so NaNs of either sign, ±Inf and zeros of both signs sort
// exactly, and the box sums turn +Inf beside -Inf into the processor's NaN.
// The third is zeros, mostly negative: a window of -0 alone is where a sum
// started from +0, as both box sums are, and one opened by its first tap part.
func TestVectorFiltersMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for w := 1; w <= 70; w++ {
		for h := 1; h <= 40; h += 1 + (w+h)%3 {
			for kind, odd := range []bool{false, true, false} {
				im := randomImage(rng, w, h, odd)
				if kind == 2 {
					for i := range im.Pix {
						im.Pix[i] = []float32{negZero32, negZero32, negZero32, 0}[rng.Intn(4)]
					}
				}
				what := fmt.Sprintf("%dx%d image kind %d", w, h, kind)
				for _, f := range []struct {
					name string
					run  func(dst *Image)
				}{
					{"MedianDenoise3Into", func(dst *Image) { MedianDenoise3Into(dst, im) }},
					{"BoxBlurInto r=1", func(dst *Image) { BoxBlurInto(dst, im, 1) }},
					{"BoxBlurInto r=2", func(dst *Image) { BoxBlurInto(dst, im, 2) }},
				} {
					got, want := &Image{W: w, H: h, Pix: unaligned(3*w*h, 2)}, New(w, h)
					f.run(got)
					portable(func() { f.run(want) })
					sameBits(t, f.name+" "+what, got.Pix, want.Pix)
				}
				if w%2 != 0 || h%2 != 0 {
					continue
				}
				got, want := Resize(im, w/2, h/2), New(w/2, h/2)
				portable(func() { want = Resize(im, w/2, h/2) })
				sameBits(t, "Resize 2:1 "+what, got.Pix, want.Pix)
				batch := []*Image{im, im}
				gotT := BatchTensorInto(tensor.New(2, 3, h/2, w/2), batch)
				wantT := tensor.New(2, 3, h/2, w/2)
				portable(func() { BatchTensorInto(wantT, batch) })
				sameBits(t, "BatchTensorInto 2:1 "+what, gotT.Data(), wantT.Data())
			}
		}
	}
}

// FuzzVectorFilters reads fuzzed bytes as an image — its width and height
// from the first two bytes, its samples the rest taken four bytes a float32,
// repeated as far as the image needs — and runs the median and box filters
// and the 2:1 downscale of it on both paths. On arbitrary bits an image holds
// NaNs of many payloads, and which of two a sum returns is the operand order
// the compiler chose, so the box and the downscale may differ only in which
// NaN they return where both return one; the median compares integers and
// must agree on every bit.
func FuzzVectorFilters(f *testing.F) {
	f.Add([]byte{64, 64, 0, 0, 0, 0x3f})
	f.Add([]byte{17, 9, 0, 0, 0xc0, 0xff, 0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add([]byte{70, 40, 0x10, 0x20, 0x30, 0x40, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0x5f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		w, h := 1+int(data[0])%70, 1+int(data[1])%40
		raw := data[2:]
		im := New(w, h)
		for i := range im.Pix {
			j := 4 * (i % (len(raw) / 4))
			im.Pix[i] = math.Float32frombits(uint32(raw[j]) | uint32(raw[j+1])<<8 | uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
		}
		run := func() (median, box, half *Image) {
			median = MedianDenoise3Into(New(w, h), im)
			box = BoxBlurInto(New(w, h), im, 1)
			half = Resize(im, max(1, w/2), max(1, h/2))
			return median, box, half
		}
		median, box, half := run()
		var wantMedian, wantBox, wantHalf *Image
		portable(func() { wantMedian, wantBox, wantHalf = run() })
		sameBits(t, fmt.Sprintf("median %dx%d", w, h), median.Pix, wantMedian.Pix)
		for _, c := range []struct {
			name      string
			got, want []float32
		}{{"box", box.Pix, wantBox.Pix}, {"2:1", half.Pix, wantHalf.Pix}} {
			for i, v := range c.got {
				if u := c.want[i]; math.Float32bits(v) != math.Float32bits(u) && !(v != v && u != u) {
					t.Fatalf("%s %dx%d: sample %d = %v (%#x), the Go loop gives %v (%#x)", c.name, w, h, i, v, math.Float32bits(v), u, math.Float32bits(u))
				}
			}
		}
	})
}
