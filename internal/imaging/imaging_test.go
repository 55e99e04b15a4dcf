package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randImage(rng *rand.Rand, w, h int) *Image {
	im := New(w, h)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	return im
}

func TestNewAndAtSet(t *testing.T) {
	im := New(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 36 {
		t.Fatalf("bad image dims")
	}
	im.Set(2, 1, 0.1, 0.2, 0.3)
	r, g, b := im.At(2, 1)
	if r != 0.1 || g != 0.2 || b != 0.3 {
		t.Fatalf("At = (%v,%v,%v)", r, g, b)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5)
}

func TestCloneIndependence(t *testing.T) {
	im := New(2, 2)
	cp := im.Clone()
	cp.Pix[0] = 1
	if im.Pix[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestClampRange(t *testing.T) {
	im := New(1, 1)
	im.Pix[0], im.Pix[1], im.Pix[2] = -0.5, 0.5, 1.5
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 0.5 || im.Pix[2] != 1 {
		t.Fatalf("Clamp = %v", im.Pix)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := randImage(rng, 5, 7).Quantize8()
	data := im.ToBytes()
	back, err := FromBytes(data, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pix {
		if math.Abs(float64(im.Pix[i]-back.Pix[i])) > 1e-6 {
			t.Fatalf("byte round trip lost data at %d: %v vs %v", i, im.Pix[i], back.Pix[i])
		}
	}
}

func TestFromBytesLengthError(t *testing.T) {
	if _, err := FromBytes(make([]byte, 10), 4, 4); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuantize8Idempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randImage(rng, 3, 3).Quantize8()
		once := append([]float32(nil), im.Pix...)
		im.Quantize8()
		for i := range once {
			if once[i] != im.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestToTensorNormalization(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, 0, 0.5, 1)
	x := im.ToTensor()
	if x.Dim(0) != 1 || x.Dim(1) != 3 || x.Dim(2) != 1 || x.Dim(3) != 2 {
		t.Fatalf("tensor shape %v", x.Shape())
	}
	if x.At(0, 0, 0, 0) != -1 || math.Abs(float64(x.At(0, 1, 0, 0))) > 1e-6 || x.At(0, 2, 0, 0) != 1 {
		t.Fatal("ToTensor must map [0,1] to [-1,1]")
	}
}

func TestBatchTensorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BatchTensor([]*Image{New(2, 2), New(3, 3)})
}

func TestMSEAndPSNR(t *testing.T) {
	a := New(2, 2)
	b := a.Clone()
	if MSE(a, b) != 0 {
		t.Fatal("MSE of identical images must be 0")
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("PSNR of identical images must be +Inf")
	}
	b.Pix[0] = 1
	if MSE(a, b) <= 0 {
		t.Fatal("MSE must be positive for differing images")
	}
	if p := PSNR(a, b); p < 0 || math.IsInf(p, 0) {
		t.Fatalf("PSNR = %v", p)
	}
}

func TestDiffMaskThreshold(t *testing.T) {
	a := New(2, 2)
	b := a.Clone()
	b.Set(0, 0, 0.2, 0, 0) // one pixel differs by 0.2 in R
	mask, frac := DiffMask(a, b, 0.05)
	if !mask[0] || mask[1] || mask[2] || mask[3] {
		t.Fatalf("mask = %v", mask)
	}
	if frac != 0.25 {
		t.Fatalf("fraction = %v", frac)
	}
	_, frac2 := DiffMask(a, b, 0.5)
	if frac2 != 0 {
		t.Fatal("high threshold should mask nothing")
	}
}

func TestMeanChannels(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, 1, 0, 0.5)
	im.Set(1, 0, 0, 1, 0.5)
	r, g, b := im.Mean()
	if r != 0.5 || g != 0.5 || b != 0.5 {
		t.Fatalf("Mean = (%v,%v,%v)", r, g, b)
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := randImage(rng, 6, 6)
	out := Resize(im, 6, 6)
	for i := range im.Pix {
		if im.Pix[i] != out.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestBoxDownsamplePreservesMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randImage(rng, 8, 8)
		out := Resize(im, 4, 4)
		r1, g1, b1 := im.Mean()
		r2, g2, b2 := out.Mean()
		return math.Abs(r1-r2) < 1e-4 && math.Abs(g1-g2) < 1e-4 && math.Abs(b1-b2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUpscaleConstant(t *testing.T) {
	im := New(2, 2)
	im.Fill(0.3, 0.6, 0.9)
	out := Resize(im, 5, 5)
	n := 25
	for i := 0; i < n; i++ {
		if math.Abs(float64(out.Pix[i]-0.3)) > 1e-5 ||
			math.Abs(float64(out.Pix[n+i]-0.6)) > 1e-5 ||
			math.Abs(float64(out.Pix[2*n+i]-0.9)) > 1e-5 {
			t.Fatal("bilinear upscale of constant image must stay constant")
		}
	}
}

func TestYCbCrRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randImage(rng, 4, 4)
		back := RGBToYCbCr(im).ToRGB()
		for i := range im.Pix {
			if math.Abs(float64(im.Pix[i]-back.Pix[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestYCbCrGrayHasZeroChroma(t *testing.T) {
	im := New(2, 2)
	im.Fill(0.42, 0.42, 0.42)
	yc := RGBToYCbCr(im)
	for i := range yc.Cb {
		if math.Abs(float64(yc.Cb[i])) > 1e-5 || math.Abs(float64(yc.Cr[i])) > 1e-5 {
			t.Fatal("gray pixels must have zero chroma")
		}
		if math.Abs(float64(yc.Y[i]-0.42)) > 1e-5 {
			t.Fatal("gray luma must equal input")
		}
	}
}

func TestHSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := float32(rng.Float64())
		g := float32(rng.Float64())
		b := float32(rng.Float64())
		h, s, v := RGBToHSV(r, g, b)
		r2, g2, b2 := HSVToRGB(h, s, v)
		return math.Abs(float64(r-r2)) < 1e-4 && math.Abs(float64(g-g2)) < 1e-4 && math.Abs(float64(b-b2)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHSVKnownColors(t *testing.T) {
	h, s, v := RGBToHSV(1, 0, 0)
	if h != 0 || s != 1 || v != 1 {
		t.Fatalf("red → HSV(%v,%v,%v)", h, s, v)
	}
	h, _, _ = RGBToHSV(0, 1, 0)
	if math.Abs(float64(h)-120) > 1e-3 {
		t.Fatalf("green hue = %v", h)
	}
	h, _, _ = RGBToHSV(0, 0, 1)
	if math.Abs(float64(h)-240) > 1e-3 {
		t.Fatalf("blue hue = %v", h)
	}
}

func TestAdjustHue360IsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := randImage(rng, 3, 3)
	out := AdjustHue(im, 360)
	for i := range im.Pix {
		if math.Abs(float64(im.Pix[i]-out.Pix[i])) > 1e-3 {
			t.Fatal("360° hue rotation must be identity")
		}
	}
}

func TestAdjustSaturationZeroIsGray(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := randImage(rng, 3, 3)
	out := AdjustSaturation(im, 0)
	n := 9
	for i := 0; i < n; i++ {
		r, g, b := out.Pix[i], out.Pix[n+i], out.Pix[2*n+i]
		if math.Abs(float64(r-g)) > 1e-4 || math.Abs(float64(g-b)) > 1e-4 {
			t.Fatalf("desaturated pixel (%v,%v,%v) not gray", r, g, b)
		}
	}
}

func TestAdjustBrightnessContrast(t *testing.T) {
	im := New(1, 1)
	im.Set(0, 0, 0.5, 0.5, 0.5)
	br := AdjustBrightness(im, 0.2)
	if math.Abs(float64(br.Pix[0])-0.7) > 1e-6 {
		t.Fatalf("brightness: %v", br.Pix[0])
	}
	// mid-gray is the contrast fixed point
	ct := AdjustContrast(im, 2)
	if math.Abs(float64(ct.Pix[0])-0.5) > 1e-6 {
		t.Fatalf("contrast fixed point: %v", ct.Pix[0])
	}
	im.Set(0, 0, 0.75, 0.75, 0.75)
	ct = AdjustContrast(im, 2)
	if math.Abs(float64(ct.Pix[0])-1.0) > 1e-6 {
		t.Fatalf("contrast: %v", ct.Pix[0])
	}
}

func TestGaussianBlurPreservesMeanAndSmooths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := randImage(rng, 16, 16)
	out := GaussianBlur(im, 1.2)
	r1, g1, b1 := im.Mean()
	r2, g2, b2 := out.Mean()
	if math.Abs(r1-r2) > 0.02 || math.Abs(g1-g2) > 0.02 || math.Abs(b1-b2) > 0.02 {
		t.Fatal("blur shifted the mean")
	}
	if variance(out.Pix) >= variance(im.Pix) {
		t.Fatal("blur must reduce variance of noise")
	}
	// sigma <= 0 is identity
	id := GaussianBlur(im, 0)
	for i := range im.Pix {
		if id.Pix[i] != im.Pix[i] {
			t.Fatal("sigma=0 blur must copy")
		}
	}
}

func TestBoxBlurAndMedianOnConstant(t *testing.T) {
	im := New(5, 5)
	im.Fill(0.4, 0.5, 0.6)
	for _, out := range []*Image{BoxBlurInto(New(im.W, im.H), im, 1), MedianDenoise3Into(New(im.W, im.H), im)} {
		n := 25
		for i := 0; i < n; i++ {
			if math.Abs(float64(out.Pix[i]-0.4)) > 1e-6 {
				t.Fatal("filter changed a constant image")
			}
		}
	}
}

func TestMedianRemovesSaltNoise(t *testing.T) {
	im := New(5, 5)
	im.Fill(0.5, 0.5, 0.5)
	im.Set(2, 2, 1, 1, 1) // single outlier
	out := MedianDenoise3Into(New(im.W, im.H), im)
	r, _, _ := out.At(2, 2)
	if r != 0.5 {
		t.Fatalf("median failed to remove outlier: %v", r)
	}
}

func variance(v []float32) float64 {
	var sum, sumSq float64
	for _, x := range v {
		sum += float64(x)
		sumSq += float64(x) * float64(x)
	}
	n := float64(len(v))
	m := sum / n
	return sumSq/n - m*m
}
