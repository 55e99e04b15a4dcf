package dataset

import (
	"math/rand"

	"repro/internal/imaging"
)

// TrainingImages renders every item at the given angles and returns images
// plus labels, the raw material for model pre-training. A light photometric
// augmentation (brightness/contrast jitter and pixel noise) stands in for
// the diversity of a web-scraped training corpus; rng drives it.
func TrainingImages(s *Set, angles []int, rng *rand.Rand, augment bool) ([]*imaging.Image, []int) {
	var images []*imaging.Image
	var labels []int
	for _, it := range s.Items {
		for _, a := range angles {
			im := it.Render(a)
			if augment {
				if rng.Float64() < 0.5 {
					im = imaging.GaussianBlur(im, 0.3+float64(rng.Float64()*0.5))
				}
				im = imaging.AdjustHue(im, float32(rng.NormFloat64()*5))
				im = imaging.AdjustSaturation(im, 1+float32(rng.NormFloat64()*0.11))
				im = imaging.AdjustBrightness(im, float32(rng.NormFloat64()*0.08))
				im = imaging.AdjustContrast(im, 1+float32(rng.NormFloat64()*0.14))
				// Random tone exponent: stands in for the variety of
				// processing pipelines behind a web-scraped corpus.
				g := 1 + float64(rng.NormFloat64()*0.15)
				if g < 0.7 {
					g = 0.7
				}
				for i, v := range im.Pix {
					if v > 0 {
						im.Pix[i] = powf(v, g)
					}
					im.Pix[i] += float32(rng.NormFloat64() * 0.015)
				}
				im.Clamp()
			}
			images = append(images, im)
			labels = append(labels, int(it.Class))
		}
	}
	return images, labels
}
