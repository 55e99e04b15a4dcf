package isp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
	"repro/internal/sensor"
)

// apply runs one stage on a copy of im, leaving im as it was.
func apply(s Stage, im *imaging.Image) *imaging.Image { return s.run(im.Clone()) }

// captureFlat photographs a flat-colored scene with a noiseless sensor.
func captureFlat(r, g, b float32, w, h int) *sensor.RawImage {
	p := sensor.DefaultParams()
	p.ShotNoise, p.ReadNoise, p.BlurSigma, p.Vignette, p.ChromaticShift = 0, 0, 0, 0, 0
	p.BitDepth = 12
	scene := imaging.New(w, h)
	scene.Fill(r, g, b)
	return sensor.New(p).Capture(scene, rand.New(rand.NewSource(1)))
}

func TestDemosaicFlatFieldExact(t *testing.T) {
	// A flat gray field must demosaic back to itself under both algorithms.
	raw := captureFlat(0.5, 0.5, 0.5, 16, 16)
	for _, algo := range []DemosaicAlgorithm{DemosaicBilinear, DemosaicEdgeAware} {
		im := Demosaic(raw, algo)
		for i, v := range im.Pix {
			if math.Abs(float64(v)-0.5) > 5e-3 {
				t.Fatalf("algo %v: sample %d = %v, want 0.5", algo, i, v)
			}
		}
	}
}

func TestDemosaicRecoversColor(t *testing.T) {
	raw := captureFlat(0.7, 0.4, 0.2, 16, 16)
	im := Demosaic(raw, DemosaicBilinear)
	// interior pixel (edges are less constrained)
	r, g, b := im.At(8, 8)
	if math.Abs(float64(r)-0.7) > 0.02 || math.Abs(float64(g)-0.4) > 0.02 || math.Abs(float64(b)-0.2) > 0.05 {
		t.Fatalf("demosaic color (%v,%v,%v), want (0.7,0.4,0.2)", r, g, b)
	}
}

func TestDemosaicAlgorithmsDifferOnEdges(t *testing.T) {
	// A vertical edge scene separates bilinear from edge-aware output.
	p := sensor.DefaultParams()
	p.ShotNoise, p.ReadNoise, p.BlurSigma, p.Vignette, p.ChromaticShift = 0, 0, 0, 0, 0
	scene := imaging.New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			v := float32(0.2)
			if x >= 8 {
				v = 0.8
			}
			scene.Set(x, y, v, v, v)
		}
	}
	raw := sensor.New(p).Capture(scene, rand.New(rand.NewSource(1)))
	a := Demosaic(raw, DemosaicBilinear)
	b := Demosaic(raw, DemosaicEdgeAware)
	if imaging.MSE(a, b) == 0 {
		t.Fatal("demosaic algorithms must differ on edges")
	}
}

func TestBlackLevelMapsPedestalToZero(t *testing.T) {
	im := imaging.New(2, 2)
	im.Fill(0.02, 0.02, 0.02)
	out := apply(BlackLevel{Level: 0.02}, im)
	for _, v := range out.Pix {
		if v != 0 {
			t.Fatalf("pedestal not removed: %v", v)
		}
	}
	// full scale stays full scale
	im.Fill(1, 1, 1)
	out = apply(BlackLevel{Level: 0.02}, im)
	for _, v := range out.Pix {
		if math.Abs(float64(v)-1) > 1e-5 {
			t.Fatalf("full scale shifted: %v", v)
		}
	}
}

func TestAutoWhiteBalanceNeutralizesCast(t *testing.T) {
	im := imaging.New(4, 4)
	im.Fill(0.6, 0.5, 0.4) // warm cast
	out := apply(WhiteBalance{Auto: true, Strength: 1}, im)
	r, g, b := out.Mean()
	if math.Abs(r-g) > 1e-3 || math.Abs(b-g) > 1e-3 {
		t.Fatalf("gray-world WB left cast: (%v,%v,%v)", r, g, b)
	}
}

func TestWhiteBalanceStrengthInterpolates(t *testing.T) {
	im := imaging.New(4, 4)
	im.Fill(0.6, 0.5, 0.4)
	half := apply(WhiteBalance{Auto: true, Strength: 0.5}, im)
	r, g, _ := half.Mean()
	// partially corrected: r mean strictly between 0.6 (uncorrected) and g
	if !(r < 0.6 && r > g) {
		t.Fatalf("half-strength WB r=%v g=%v", r, g)
	}
}

func TestFixedWhiteBalanceGains(t *testing.T) {
	im := imaging.New(2, 2)
	im.Fill(0.5, 0.5, 0.5)
	out := apply(WhiteBalance{GainR: 1.2, GainG: 1, GainB: 0.8}, im)
	r, g, b := out.At(0, 0)
	if math.Abs(float64(r)-0.6) > 1e-5 || g != 0.5 || math.Abs(float64(b)-0.4) > 1e-5 {
		t.Fatalf("fixed WB = (%v,%v,%v)", r, g, b)
	}
}

func TestSaturationMatrixPreservesGray(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := float32(rng.Float64())
		im := imaging.New(1, 1)
		im.Fill(v, v, v)
		out := apply(SaturationMatrix(1.3), im)
		r, g, b := out.At(0, 0)
		return math.Abs(float64(r-v)) < 1e-4 && math.Abs(float64(g-v)) < 1e-4 && math.Abs(float64(b-v)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSaturationMatrixBoostsChroma(t *testing.T) {
	im := imaging.New(1, 1)
	im.Fill(0.7, 0.5, 0.3)
	out := apply(SaturationMatrix(1.5), im)
	r, _, b := out.At(0, 0)
	if r <= 0.7 || b >= 0.3 {
		t.Fatalf("saturation boost failed: r=%v b=%v", r, b)
	}
	mut := apply(SaturationMatrix(0.5), im)
	r2, _, b2 := mut.At(0, 0)
	if r2 >= 0.7 || b2 <= 0.3 {
		t.Fatalf("desaturation failed: r=%v b=%v", r2, b2)
	}
}

func TestIdentityMatrixIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := imaging.New(3, 3)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	out := apply(IdentityMatrix(), im)
	for i := range im.Pix {
		if im.Pix[i] != out.Pix[i] {
			t.Fatal("identity matrix changed pixels")
		}
	}
}

func TestGammaMonotoneAndEndpointsFixed(t *testing.T) {
	for _, g := range []Gamma{{SRGB: true}, {G: 2.2}} {
		im := imaging.New(3, 1)
		im.Set(0, 0, 0, 0, 0)
		im.Set(1, 0, 0.5, 0.5, 0.5)
		im.Set(2, 0, 1, 1, 1)
		out := apply(g, im)
		lo, _, _ := out.At(0, 0)
		mid, _, _ := out.At(1, 0)
		hi, _, _ := out.At(2, 0)
		if lo != 0 || math.Abs(float64(hi)-1) > 1e-4 {
			t.Fatalf("gamma endpoints moved: %v %v", lo, hi)
		}
		if !(mid > 0.5) {
			t.Fatalf("encoding gamma must brighten midtones: %v", mid)
		}
	}
}

func TestToneCurveIdentityAtZeroStrength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := imaging.New(3, 3)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	out := apply(ToneCurve{Strength: 0}, im)
	for i := range im.Pix {
		if im.Pix[i] != out.Pix[i] {
			t.Fatal("zero-strength tone curve changed pixels")
		}
	}
}

func TestToneCurveSCurveShape(t *testing.T) {
	im := imaging.New(2, 1)
	im.Set(0, 0, 0.2, 0.2, 0.2)
	im.Set(1, 0, 0.8, 0.8, 0.8)
	out := apply(ToneCurve{Strength: 0.5}, im)
	shadow, _, _ := out.At(0, 0)
	highlight, _, _ := out.At(1, 0)
	if shadow >= 0.2 {
		t.Fatalf("s-curve must deepen shadows: %v", shadow)
	}
	if highlight <= 0.8 {
		t.Fatalf("s-curve must lift highlights: %v", highlight)
	}
}

func TestSharpenZeroAmountIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := imaging.New(8, 8)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	out := apply(Sharpen{Sigma: 1, Amount: 0}, im)
	for i := range im.Pix {
		if math.Abs(float64(im.Pix[i]-out.Pix[i])) > 1e-6 {
			t.Fatal("amount=0 unsharp must be identity")
		}
	}
}

func TestSharpenIncreasesEdgeContrast(t *testing.T) {
	im := imaging.New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			v := float32(0.2)
			if x >= 4 {
				v = 0.8
			}
			im.Set(x, y, v, v, v)
		}
	}
	out := apply(Sharpen{Sigma: 1, Amount: 1}, im)
	// sample across the edge
	lo, _, _ := out.At(3, 4)
	hi, _, _ := out.At(4, 4)
	if hi-lo <= 0.6 {
		t.Fatalf("edge contrast %v not amplified", hi-lo)
	}
}

func TestStageNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Stage{
		BlackLevel{}, WhiteBalance{}, ColorMatrix{}, Gamma{}, ToneCurve{},
		Denoise{}, Sharpen{}, ClampStage{},
	} {
		if names[s.Name()] {
			t.Fatalf("duplicate stage name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

func TestPipelineProcessDeterministic(t *testing.T) {
	raw := captureFlat(0.5, 0.4, 0.6, 16, 16)
	for _, p := range []*Pipeline{
		VendorSamsung(), VendorApple(), VendorHTC(), VendorLG(), VendorMotorola(),
		SoftwareImageMagick(), SoftwareAdobe(), SoftwareDNG(),
	} {
		a := p.Process(raw)
		b := p.Process(raw)
		if imaging.MSE(a, b) != 0 {
			t.Fatalf("pipeline %s is nondeterministic", p.Name)
		}
	}
}

func TestVendorPipelinesProduceDistinctImages(t *testing.T) {
	raw := captureFlat(0.6, 0.45, 0.3, 16, 16)
	pipelines := []*Pipeline{VendorSamsung(), VendorApple(), VendorHTC(), VendorLG(), VendorMotorola()}
	outs := make([]*imaging.Image, len(pipelines))
	for i, p := range pipelines {
		outs[i] = p.Process(raw)
	}
	for i := 0; i < len(outs); i++ {
		for j := i + 1; j < len(outs); j++ {
			if imaging.MSE(outs[i], outs[j]) == 0 {
				t.Fatalf("pipelines %s and %s identical", pipelines[i].Name, pipelines[j].Name)
			}
		}
	}
}

func TestSoftwareISPsDiffer(t *testing.T) {
	// The Table 4 premise: the two converters render differently.
	raw := captureFlat(0.6, 0.45, 0.3, 16, 16)
	a := SoftwareImageMagick().Process(raw)
	b := SoftwareAdobe().Process(raw)
	if imaging.PSNR(a, b) > 40 {
		t.Fatalf("software ISPs too similar: PSNR %v", imaging.PSNR(a, b))
	}
}

func TestDescribeListsStages(t *testing.T) {
	d := VendorSamsung().Describe()
	for _, want := range []string{"samsung-isp", "demosaic(edge)", "white_balance", "gamma", "sharpen"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() = %q missing %q", d, want)
		}
	}
	if !strings.Contains(SoftwareImageMagick().Describe(), "demosaic(bilinear)") {
		t.Fatal("bilinear demosaic not described")
	}
}

func TestProcessRGBSkipsDemosaic(t *testing.T) {
	im := imaging.New(4, 4)
	im.Fill(0.5, 0.5, 0.5)
	out := SoftwareImageMagick().ProcessRGB(im)
	if out.W != 4 || out.H != 4 {
		t.Fatal("ProcessRGB changed dimensions")
	}
}
