package codec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func randImage(rng *rand.Rand, w, h int) *imaging.Image {
	im := imaging.New(w, h)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	return im
}

// smoothImage returns a natural-ish image (smooth gradients + a disc), which
// codecs should reconstruct well.
func smoothImage(w, h int) *imaging.Image {
	im := imaging.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := 0.2 + 0.6*float32(x)/float32(w)
			g := 0.3 + 0.4*float32(y)/float32(h)
			b := float32(0.5)
			dx, dy := float32(x-w/2), float32(y-h/2)
			if dx*dx+dy*dy < float32(w*h)/16 {
				r, g, b = 0.8, 0.2, 0.1
			}
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

func TestDCTRoundTripIdentity(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]float32, n*n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		freq := make([]float32, n*n)
		back := make([]float32, n*n)
		forward2D(n, freq, src)
		inverse2D(n, back, freq)
		for i := range src {
			if math.Abs(float64(src[i]-back[i])) > 1e-4 {
				t.Fatalf("n=%d: DCT round trip lost %v vs %v at %d", n, src[i], back[i], i)
			}
		}
	}
}

func TestDCTEnergyPreservation(t *testing.T) {
	// Orthonormal transform: sum of squares is preserved (Parseval).
	rng := rand.New(rand.NewSource(2))
	src := make([]float32, 64)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	freq := make([]float32, 64)
	forward2D(8, freq, src)
	var e1, e2 float64
	for i := range src {
		e1 += float64(src[i]) * float64(src[i])
		e2 += float64(freq[i]) * float64(freq[i])
	}
	if math.Abs(e1-e2)/e1 > 1e-4 {
		t.Fatalf("Parseval violated: %v vs %v", e1, e2)
	}
}

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	src := make([]float32, 64)
	for i := range src {
		src[i] = 0.5
	}
	freq := make([]float32, 64)
	forward2D(8, freq, src)
	if math.Abs(float64(freq[0])-0.5*8) > 1e-4 {
		t.Fatalf("DC coefficient %v, want 4", freq[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(float64(freq[i])) > 1e-4 {
			t.Fatalf("AC coefficient %d = %v, want 0", i, freq[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%15) + 2
		order := zigzagOrder(n)
		if len(order) != n*n {
			return false
		}
		seen := make([]bool, n*n)
		for _, v := range order {
			if v < 0 || v >= n*n || seen[v] {
				return false
			}
			seen[v] = true
		}
		// first two entries follow the JPEG scan: DC then (0,1)
		return order[0] == 0 && order[1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQualityScaleEndpoints(t *testing.T) {
	if qualityScale(50) != 100 {
		t.Fatalf("qualityScale(50) = %d, want 100", qualityScale(50))
	}
	if qualityScale(100) != 0 {
		t.Fatalf("qualityScale(100) = %d", qualityScale(100))
	}
	if qualityScale(1) != 5000 {
		t.Fatalf("qualityScale(1) = %d", qualityScale(1))
	}
	// clamping of out-of-range inputs
	if qualityScale(0) != qualityScale(1) || qualityScale(101) != qualityScale(100) {
		t.Fatal("quality clamping broken")
	}
}

func TestScaleTableClamps(t *testing.T) {
	tab := scaleTable([]int{1, 255, 16}, 1) // huge scale
	for _, v := range tab {
		if v < 1 || v > 255 {
			t.Fatalf("table entry %v out of [1,255]", v)
		}
	}
}

func TestJPEGHigherQualityLowerError(t *testing.T) {
	im := smoothImage(32, 32)
	var prevMSE float64 = -1
	var prevSize int
	for _, q := range []int{30, 60, 90} {
		enc := NewJPEG(q).Encode(im)
		dec := enc.Decode(DecodeOptions{})
		mse := imaging.MSE(im, dec)
		if prevMSE >= 0 {
			if mse > prevMSE {
				t.Fatalf("q=%d has higher MSE (%v) than lower quality (%v)", q, mse, prevMSE)
			}
			if enc.Size < prevSize {
				t.Fatalf("q=%d produced smaller file (%d) than lower quality (%d)", q, enc.Size, prevSize)
			}
		}
		prevMSE, prevSize = mse, enc.Size
	}
}

func TestPNGIsLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randImage(rng, 9, 6).Quantize8()
		dec := NewPNG().Encode(im).Decode(DecodeOptions{})
		for i := range im.Pix {
			if math.Abs(float64(im.Pix[i]-dec.Pix[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPNGIgnoresDecodeOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := randImage(rng, 16, 16)
	enc := NewPNG().Encode(im)
	a := enc.Decode(DecodeOptions{ChromaUpsample: UpsampleBilinear})
	b := enc.Decode(DecodeOptions{ChromaUpsample: UpsampleNearest})
	if imaging.MSE(a, b) != 0 {
		t.Fatal("PNG decode must not depend on decoder options")
	}
}

func TestJPEGDecodeOptionsDiffer(t *testing.T) {
	im := smoothImage(32, 32)
	enc := NewJPEG(85).Encode(im)
	a := enc.Decode(DecodeOptions{ChromaUpsample: UpsampleBilinear})
	b := enc.Decode(DecodeOptions{ChromaUpsample: UpsampleNearest})
	if imaging.MSE(a, b) == 0 {
		t.Fatal("chroma upsampling mode must change the decoded pixels")
	}
	// ...but only subtly: both are valid decodes of the same file.
	if imaging.PSNR(a, b) < 20 {
		t.Fatalf("decoder variants too different: PSNR %v", imaging.PSNR(a, b))
	}
}

func TestFormatsProduceDifferentReconstructions(t *testing.T) {
	im := smoothImage(32, 32)
	jpeg := NewJPEG(75).Encode(im).Decode(DecodeOptions{})
	webp := NewWebP(75).Encode(im).Decode(DecodeOptions{})
	heif := NewHEIF(75).Encode(im).Decode(DecodeOptions{})
	if imaging.MSE(jpeg, webp) == 0 || imaging.MSE(jpeg, heif) == 0 || imaging.MSE(webp, heif) == 0 {
		t.Fatal("distinct formats must reconstruct differently")
	}
}

func TestFormatSizeOrdering(t *testing.T) {
	// The paper's Table 3 size ordering: PNG ≫ JPEG > HEIF > WebP. This
	// holds for photographic content (sensor noise defeats deflate), so
	// the test image is a smooth scene plus capture-like noise.
	rng := rand.New(rand.NewSource(42))
	im := smoothImage(64, 64)
	for i := range im.Pix {
		im.Pix[i] += float32(rng.NormFloat64() * 0.02)
	}
	im.Clamp().Quantize8()
	png := NewPNG().Encode(im).Size
	jpeg := NewJPEG(75).Encode(im).Size
	webp := NewWebP(75).Encode(im).Size
	heif := NewHEIF(75).Encode(im).Size
	if !(png > jpeg && jpeg > heif && heif > webp) {
		t.Fatalf("size ordering png=%d jpeg=%d heif=%d webp=%d", png, jpeg, heif, webp)
	}
}

func TestLossyReconstructionQuality(t *testing.T) {
	// At default quality every codec should stay perceptually close.
	im := smoothImage(32, 32)
	for _, c := range []Codec{NewJPEG(75), NewWebP(75), NewHEIF(75)} {
		dec := c.Encode(im).Decode(DecodeOptions{})
		if p := imaging.PSNR(im, dec); p < 22 {
			t.Fatalf("%s PSNR %v too low", c.Name(), p)
		}
	}
}

func TestCodecNames(t *testing.T) {
	for name, c := range map[string]Codec{
		"jpeg-q85": NewJPEG(85),
		"webp-q60": NewWebP(60),
		"heif-q70": NewHEIF(70),
		"png":      NewPNG(),
	} {
		if c.Name() != name {
			t.Fatalf("Name() = %q, want %q", c.Name(), name)
		}
	}
}

func TestEncodedDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Odd sizes exercise edge-padding and chroma rounding.
	for _, dims := range [][2]int{{16, 16}, {17, 13}, {9, 25}} {
		im := randImage(rng, dims[0], dims[1])
		for _, c := range []Codec{NewJPEG(80), NewWebP(80), NewHEIF(80), NewPNG()} {
			dec := c.Encode(im).Decode(DecodeOptions{})
			if dec.W != dims[0] || dec.H != dims[1] {
				t.Fatalf("%s: decoded %dx%d, want %dx%d", c.Name(), dec.W, dec.H, dims[0], dims[1])
			}
		}
	}
}

func TestDownUpsampleRoundTrip(t *testing.T) {
	// Downsample+bilinear upsample of a smooth plane stays close.
	w, h := 16, 16
	src := make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src[y*w+x] = float32(x+y) / float32(w+h)
		}
	}
	down, dw, dh := downsample2x(nil, src, w, h)
	if dw != 8 || dh != 8 {
		t.Fatalf("downsampled dims %dx%d", dw, dh)
	}
	up := upsample2x(nil, down, dw, dh, w, h, UpsampleBilinear, nil)
	for i := range src {
		if math.Abs(float64(src[i]-up[i])) > 0.05 {
			t.Fatalf("round trip error %v at %d", src[i]-up[i], i)
		}
	}
}

func TestUpsampleNearestReplicates(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	up := upsample2x(nil, src, 2, 2, 4, 4, UpsampleNearest, nil)
	if up[0] != 1 || up[1] != 1 || up[4] != 1 || up[5] != 1 {
		t.Fatalf("nearest upsample top-left block %v", up[:6])
	}
	if up[15] != 4 {
		t.Fatalf("nearest upsample bottom-right %v", up[15])
	}
}

func TestEntropyBitsPositiveAndMonotonic(t *testing.T) {
	im := smoothImage(32, 32)
	q90 := NewJPEG(90).Encode(im)
	q30 := NewJPEG(30).Encode(im)
	if q90.Size <= 0 || q30.Size <= 0 {
		t.Fatal("sizes must be positive")
	}
	if q30.Size >= q90.Size {
		t.Fatalf("harsher quantization must shrink the file: q30=%d q90=%d", q30.Size, q90.Size)
	}
}

// TestMagnitudeBits pins the magnitude category on both sides of every
// power of two, of either sign, and at the int32 limits. MinInt32 — what a
// NaN or out-of-range quotient quantizes to on amd64 — costs 0 bits, as it
// did when the negation overflowed.
func TestMagnitudeBits(t *testing.T) {
	cases := map[int32]int{0: 0, 1: 1, -1: 1, 3: 2, -7: 3, 255: 8, math.MaxInt32: 31, -math.MaxInt32: 31, math.MinInt32: 0}
	for k := 1; k < 31; k++ {
		cases[1<<k], cases[-1<<k] = k+1, k+1
		cases[1<<k-1], cases[-(1<<k-1)] = k, k
	}
	for v, want := range cases {
		if got := magnitudeBits(v); got != want {
			t.Fatalf("magnitudeBits(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestFlattenTable(t *testing.T) {
	base := []int{10, 20, 30, 40}
	flat := flattenTable(base, 1) // fully flattened → all ≈ mean 25
	for _, v := range flat {
		if v != 25 {
			t.Fatalf("flattenTable(1) = %v", flat)
		}
	}
	same := flattenTable(base, 0)
	for i, v := range same {
		if v != base[i] {
			t.Fatal("flattenTable(0) must be identity")
		}
	}
}

func TestResampleTable8(t *testing.T) {
	tab4 := resampleTable8(jpegLumaQ8[:], 4)
	if len(tab4) != 16 {
		t.Fatalf("len = %d", len(tab4))
	}
	if tab4[0] != jpegLumaQ8[0] {
		t.Fatal("DC entry must carry over")
	}
	tab16 := resampleTable8(jpegLumaQ8[:], 16)
	if len(tab16) != 256 {
		t.Fatalf("len = %d", len(tab16))
	}
}

func TestPaeth(t *testing.T) {
	// Known Paeth predictor cases from the PNG spec semantics.
	if paeth(0, 0, 0) != 0 {
		t.Fatal("paeth(0,0,0)")
	}
	if paeth(10, 20, 10) != 20 {
		t.Fatalf("paeth(10,20,10) = %d, want 20", paeth(10, 20, 10))
	}
	if paeth(20, 10, 10) != 20 {
		t.Fatalf("paeth(20,10,10) = %d, want 20", paeth(20, 10, 10))
	}
}
