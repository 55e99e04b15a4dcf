package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func TestClassString(t *testing.T) {
	if WaterBottle.String() != "water bottle" || Backpack.String() != "backpack" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "unknown" {
		t.Fatal("out-of-range class must be unknown")
	}
}

func TestGenerateBalancedClasses(t *testing.T) {
	s := Generate(50, 1)
	counts := map[Class]int{}
	for _, it := range s.Items {
		counts[it.Class]++
	}
	for c := Class(0); c < NumClasses; c++ {
		if counts[c] != 10 {
			t.Fatalf("class %v count %d, want 10", c, counts[c])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(10, 7)
	b := Generate(10, 7)
	for i := range a.Items {
		imA := a.Items[i].Render(2)
		imB := b.Items[i].Render(2)
		if imaging.MSE(imA, imB) != 0 {
			t.Fatalf("item %d renders differ for same seed", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(5, 1).Items[0].Render(2)
	b := Generate(5, 2).Items[0].Render(2)
	if imaging.MSE(a, b) == 0 {
		t.Fatal("different seeds rendered identical scenes")
	}
}

func TestRenderDeterministicPerItem(t *testing.T) {
	it := Generate(1, 3).Items[0]
	a := it.Render(1)
	b := it.Render(1)
	if imaging.MSE(a, b) != 0 {
		t.Fatal("Render must be deterministic")
	}
}

func TestRenderSize(t *testing.T) {
	im := Generate(1, 4).Items[0].Render(0)
	if im.W != SceneSize || im.H != SceneSize {
		t.Fatalf("render size %dx%d", im.W, im.H)
	}
}

func TestRenderAngleOutOfRangePanics(t *testing.T) {
	it := Generate(1, 5).Items[0]
	for _, a := range []int{-1, NumAngles} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("angle %d must panic", a)
				}
			}()
			it.Render(a)
		}()
	}
}

func TestAnglesChangeTheScene(t *testing.T) {
	it := Generate(1, 6).Items[0]
	center := it.Render(2)
	left := it.Render(0)
	if imaging.MSE(center, left) == 0 {
		t.Fatal("different angles must change the image")
	}
}

func TestAngleGeometryShiftsMonotonically(t *testing.T) {
	var prev float64 = -1
	for a := 0; a < NumAngles; a++ {
		dx, squeeze := angleGeometry(a)
		if dx <= prev {
			t.Fatalf("angle offsets not increasing: %v after %v", dx, prev)
		}
		prev = dx
		if squeeze <= 0 || squeeze > 1 {
			t.Fatalf("squeeze %v out of range", squeeze)
		}
	}
	if dx, sq := angleGeometry(2); dx != 0 || sq != 1 {
		t.Fatalf("center angle must be neutral: dx=%v squeeze=%v", dx, sq)
	}
}

func TestClassesRenderDistinctly(t *testing.T) {
	// Render one object per class with identical nuisance seed; all pairs
	// must differ substantially.
	images := make([]*imaging.Image, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		it := &Item{ID: int(c), Class: c, seed: 12345}
		images[c] = it.Render(2)
	}
	for i := 0; i < len(images); i++ {
		for j := i + 1; j < len(images); j++ {
			if imaging.MSE(images[i], images[j]) < 1e-4 {
				t.Fatalf("classes %v and %v render nearly identically", Class(i), Class(j))
			}
		}
	}
}

func TestSplitPreservesBalanceAndSize(t *testing.T) {
	s := Generate(100, 8)
	train, test := s.Split(0.8)
	if len(train.Items) != 80 || len(test.Items) != 20 {
		t.Fatalf("split sizes %d/%d", len(train.Items), len(test.Items))
	}
	counts := map[Class]int{}
	for _, it := range train.Items {
		counts[it.Class]++
	}
	for c := Class(0); c < NumClasses; c++ {
		if counts[c] != 16 {
			t.Fatalf("train class %v count %d, want 16", c, counts[c])
		}
	}
}

func TestLabels(t *testing.T) {
	s := Generate(10, 9)
	labels := s.Labels()
	for i, l := range labels {
		if l != int(s.Items[i].Class) {
			t.Fatalf("label %d = %d", i, l)
		}
	}
}

func TestHardDistributionIsWider(t *testing.T) {
	// Hard scenes should show more brightness variation across items than
	// easy scenes.
	spread := func(s *Set) float64 {
		var means []float64
		for _, it := range s.Items {
			r, g, b := it.Render(2).Mean()
			means = append(means, (r+g+b)/3)
		}
		var sum, sumSq float64
		for _, m := range means {
			sum += m
			sumSq += m * m
		}
		n := float64(len(means))
		mu := sum / n
		return sumSq/n - mu*mu
	}
	easy := spread(Generate(60, 10))
	hard := spread(GenerateHard(60, 10))
	if hard <= easy {
		t.Fatalf("hard distribution variance %v not wider than easy %v", hard, easy)
	}
}

func TestScreenDisplayDeterministicPerRNG(t *testing.T) {
	sp := DefaultScreen()
	im := Generate(1, 11).Items[0].Render(2)
	a := sp.Display(im, rand.New(rand.NewSource(5)))
	b := sp.Display(im, rand.New(rand.NewSource(5)))
	if imaging.MSE(a, b) != 0 {
		t.Fatal("Display must be deterministic in the rng")
	}
}

func TestScreenFlickerVariesAcrossCaptures(t *testing.T) {
	sp := DefaultScreen()
	im := Generate(1, 12).Items[0].Render(2)
	a := sp.Display(im, rand.New(rand.NewSource(1)))
	b := sp.Display(im, rand.New(rand.NewSource(2)))
	if imaging.MSE(a, b) == 0 {
		t.Fatal("temporal flicker must vary between captures")
	}
	// ...but only slightly (the Figure 1 premise: images look identical).
	if imaging.PSNR(a, b) < 30 {
		t.Fatalf("flicker too strong: PSNR %v", imaging.PSNR(a, b))
	}
}

func TestScreenRowMaskDarkensOddRows(t *testing.T) {
	sp := ScreenParams{Gamma: 1, Backlight: 1, RowMask: 0.2, FlickerStd: 0, AmbientGlow: 0}
	im := imaging.New(4, 4)
	im.Fill(0.5, 0.5, 0.5)
	out := sp.Display(im, rand.New(rand.NewSource(1)))
	even, _, _ := out.At(0, 0)
	odd, _, _ := out.At(0, 1)
	if odd >= even {
		t.Fatalf("odd row %v not darker than even %v", odd, even)
	}
}

func TestScreenOutputInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := DefaultScreen()
		im := GenerateHard(1, seed).Items[0].Render(rng.Intn(NumAngles))
		out := sp.Display(im, rng)
		for _, v := range out.Pix {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingImagesCountAndLabels(t *testing.T) {
	s := Generate(10, 13)
	rng := rand.New(rand.NewSource(1))
	images, labels := TrainingImages(s, []int{0, 2, 4}, rng, false)
	if len(images) != 30 || len(labels) != 30 {
		t.Fatalf("got %d images %d labels", len(images), len(labels))
	}
	for i := range labels {
		if labels[i] != int(s.Items[i/3].Class) {
			t.Fatalf("label %d = %d", i, labels[i])
		}
	}
}

func TestTrainingImagesAugmentationChangesPixels(t *testing.T) {
	s := Generate(2, 14)
	clean, _ := TrainingImages(s, []int{2}, rand.New(rand.NewSource(1)), false)
	aug, _ := TrainingImages(s, []int{2}, rand.New(rand.NewSource(1)), true)
	if imaging.MSE(clean[0], aug[0]) == 0 {
		t.Fatal("augmentation must perturb the image")
	}
	// augmented output remains a valid image
	for _, v := range aug[0].Pix {
		if v < 0 || v > 1 || math.IsNaN(float64(v)) {
			t.Fatalf("augmented pixel %v out of range", v)
		}
	}
}
