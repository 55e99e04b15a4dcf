package dataset

import (
	"math/rand"

	"repro/internal/fmath"
	"repro/internal/imaging"
)

// Item is one physical object + backdrop ("an image in the collected
// dataset"). Rendering is deterministic in the item's seed: the same item
// rendered at the same angle always produces the identical scene, which is
// how every phone photographs the same on-screen photo.
type Item struct {
	ID    int
	Class Class
	Hard  bool // drawn from the wide evaluation distribution
	seed  int64
}

// Render draws the item as seen from the given camera angle (0..4).
func (it *Item) Render(angle int) *imaging.Image {
	if angle < 0 || angle >= NumAngles {
		panic("dataset: angle out of range")
	}
	rng := rand.New(rand.NewSource(it.seed))
	p := drawParams(rng, it.Hard)
	return renderScene(it.Class, angle, p)
}

// Set is a labeled collection of items.
type Set struct {
	Items []*Item
}

// Generate creates n items with balanced classes, deterministically from
// seed, drawn from the narrow "training corpus" distribution.
func Generate(n int, seed int64) *Set { return generate(n, seed, false) }

// GenerateHard creates n items from the wide "real world" distribution used
// for evaluation captures; see drawParams for how the two differ.
func GenerateHard(n int, seed int64) *Set { return generate(n, seed, true) }

func generate(n int, seed int64, hard bool) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Items: make([]*Item, n)}
	for i := 0; i < n; i++ {
		s.Items[i] = &Item{
			ID:    i,
			Class: Class(i % int(NumClasses)),
			Hard:  hard,
			seed:  rng.Int63(),
		}
	}
	return s
}

// Split partitions the set into train and test subsets with the given train
// fraction, preserving class balance (items are generated class-round-robin,
// so a stride split stays balanced).
func (s *Set) Split(trainFrac float64) (train, test *Set) {
	nTrain := int(float64(len(s.Items)) * trainFrac)
	return &Set{Items: s.Items[:nTrain]}, &Set{Items: s.Items[nTrain:]}
}

// Labels returns the class index of every item.
func (s *Set) Labels() []int {
	out := make([]int, len(s.Items))
	for i, it := range s.Items {
		out[i] = int(it.Class)
	}
	return out
}

// ScreenParams model the lab monitor the phones photograph: display gamma,
// backlight level, a sub-pixel row structure, and frame-to-frame backlight
// flicker. The flicker is why two captures of the same displayed image one
// second apart are not pixel-identical (Figure 1).
type ScreenParams struct {
	Gamma       float64 // display transfer exponent
	Backlight   float32 // overall luminance scale
	RowMask     float32 // attenuation of odd rows (LCD line structure)
	FlickerStd  float64 // per-capture global luminance jitter (std)
	AmbientGlow float32 // additive stray light in the dark room
}

// DefaultScreen returns the parameters of the rig's monitor.
func DefaultScreen() ScreenParams {
	return ScreenParams{Gamma: 2.2, Backlight: 0.92, RowMask: 0.04, FlickerStd: 0.012, AmbientGlow: 0.01}
}

// Display converts a stored image into the light pattern the monitor emits
// for one exposure. rng supplies the temporal flicker; passing different rng
// states models photos taken at different moments.
func (sp ScreenParams) Display(im *imaging.Image, rng *rand.Rand) *imaging.Image {
	out := im.Clone()
	flicker := float32(1 + float64(rng.NormFloat64()*sp.FlickerStd))
	n := im.W * im.H
	for y := 0; y < im.H; y++ {
		rowScale := float32(1)
		if y%2 == 1 {
			rowScale = 1 - sp.RowMask
		}
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			for p := 0; p < 3; p++ {
				v := out.Pix[p*n+i]
				// The stored image is display-referred; the monitor
				// linearizes it through its gamma into emitted light.
				v = powf(v, sp.Gamma)
				v = float32(v*sp.Backlight*rowScale*flicker) + sp.AmbientGlow
				out.Pix[p*n+i] = v
			}
		}
	}
	return out.Clamp()
}

func powf(v float32, g float64) float32 {
	if v <= 0 {
		return 0
	}
	return fmath.PowFloat32(float64(v), g)
}
