package isp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
	"repro/internal/sensor"
)

// allPipelines returns every built-in pipeline, covering auto and fixed
// white balance, both gamma forms, tone curves, denoisers and sharpening.
func allPipelines() []*Pipeline {
	return []*Pipeline{
		VendorSamsung(), VendorApple(), VendorHTC(), VendorLG(), VendorMotorola(),
		SoftwareImageMagick(), SoftwareDNG(), SoftwareAdobe(),
	}
}

// noisyRaw captures a random textured scene so the comparison exercises the
// full pixel range, including the steep dark end of the gamma curves.
func noisyRaw(seed int64, w, h int) *sensor.RawImage {
	rng := rand.New(rand.NewSource(seed))
	scene := imaging.New(w, h)
	for i := range scene.Pix {
		scene.Pix[i] = rng.Float32()
	}
	p := sensor.DefaultParams()
	return sensor.New(p).Capture(scene, rng)
}

// TestFusedMatchesPipeline bounds the fused fast path's deviation from the
// interpreted pipeline: within LUT interpolation error on every pixel, for
// every built-in pipeline.
func TestFusedMatchesPipeline(t *testing.T) {
	raw := noisyRaw(3, 32, 32)
	for _, p := range allPipelines() {
		want := p.Process(raw)
		got := Fuse(p).Process(raw)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("%s: fused size %dx%d, want %dx%d", p.Name, got.W, got.H, want.W, want.H)
		}
		var worst float64
		for i := range want.Pix {
			if d := math.Abs(float64(got.Pix[i] - want.Pix[i])); d > worst {
				worst = d
			}
		}
		if worst > 1e-3 {
			t.Errorf("%s: max fused deviation %v > 1e-3", p.Name, worst)
		}
	}
}

// TestFusedProcessRGBDoesNotMutateInput guards the in-place execution: the
// stages of every built-in pipeline, as written and fused, run on a copy.
func TestFusedProcessRGBDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := imaging.New(16, 16)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	before := append([]float32(nil), im.Pix...)
	for _, p := range allPipelines() {
		for _, run := range []*Pipeline{p, Fuse(p)} {
			_ = run.ProcessRGB(im)
			for i := range before {
				if im.Pix[i] != before[i] {
					t.Fatalf("%s (%d stages): ProcessRGB mutated input at %d", run.Name, len(run.Stages), i)
				}
			}
		}
	}
}

// TestPipelineProcessMatchesAfterPoolReuse guards the ownership of pooled
// images: a result handed back to the pool, and whatever the stages of two
// other frames then took from and gave to it, must leave nothing that a later
// run reads before writing. Every pipeline with a Denoise or a Sharpen — the
// stages that borrow from the pool — as written and fused.
func TestPipelineProcessMatchesAfterPoolReuse(t *testing.T) {
	first, others := noisyRaw(21, 32, 32), []*sensor.RawImage{noisyRaw(22, 32, 32), noisyRaw(23, 24, 40)}
	checked := 0
	for _, p := range allPipelines() {
		borrows := false
		for _, s := range p.Stages {
			switch s.(type) {
			case Denoise, Sharpen:
				borrows = true
			}
		}
		if !borrows {
			continue
		}
		checked++
		for _, run := range []*Pipeline{p, Fuse(p)} {
			out := run.Process(first)
			want := append([]float32(nil), out.Pix...)
			imaging.PutImage(out)
			for _, raw := range others {
				imaging.PutImage(run.Process(raw))
			}
			sameBits(t, fmt.Sprintf("%s (%d stages)", run.Name, len(run.Stages)), run.Process(first).Pix, want)
		}
	}
	if checked < 6 {
		t.Fatalf("only %d built-in pipelines denoise or sharpen; the test expects at least 6", checked)
	}
}

// TestFusedDeterministic: two fused copies of one pipeline agree exactly.
func TestFusedDeterministic(t *testing.T) {
	raw := noisyRaw(11, 24, 24)
	for _, p := range allPipelines() {
		a := Fuse(p).Process(raw)
		b := Fuse(p).Process(raw)
		for i := range a.Pix {
			if a.Pix[i] != b.Pix[i] {
				t.Fatalf("%s: fused output not deterministic at %d", p.Name, i)
			}
		}
	}
}

// TestFusedCollapsesPointwiseRuns checks the compiler actually fuses: the
// HTC pipeline's five pointwise stages after white balance must become at
// most one matrix and one LUT pass.
func TestFusedCollapsesPointwiseRuns(t *testing.T) {
	// htc: black_level, wb(fixed), saturation, gamma, sharpen, clamp
	f := Fuse(VendorHTC())
	var stages, sharpens, matrices, luts, clamps int
	for _, s := range f.Stages {
		switch s.(type) {
		case Sharpen:
			sharpens++
		case ColorMatrix:
			matrices++
		case ClampStage:
			clamps++
		case lut:
			luts++
		default:
			stages++
		}
	}
	if stages != 0 || sharpens != 1 { // fixed WB folds into the matrix
		t.Fatalf("htc fused kept %d fallback stages + %d sharpens, want 0 + 1", stages, sharpens)
	}
	if matrices > 1 || luts > 2 || clamps > 1 {
		t.Fatalf("htc fused into %d matrix + %d lut + %d clamp passes, want ≤1/≤2/≤1", matrices, luts, clamps)
	}
}

// TestFusedClampDetection: a clamp-only curve run skips the LUT.
func TestFusedClampDetection(t *testing.T) {
	f := Fuse(&Pipeline{Name: "clamp", Demosaic: DemosaicBilinear, Stages: []Stage{ClampStage{}}})
	if len(f.Stages) != 1 || f.Stages[0] != (ClampStage{}) {
		t.Fatalf("clamp-only pipeline compiled to %+v", f.Stages)
	}
	im := imaging.New(4, 4)
	im.Pix[0], im.Pix[1] = -0.5, 1.5
	out := f.ProcessRGB(im)
	if out.Pix[0] != 0 || out.Pix[1] != 1 {
		t.Fatalf("clamp op produced %v, %v", out.Pix[0], out.Pix[1])
	}
}
