package isp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imaging"
	"repro/internal/sensor"
)

// This file keeps the pre-refactor demosaic kernels (per-pixel interior
// check, clampRef/rawAt indirection on every tap) as references: the
// plan-driven loops in demosaic.go must reproduce them bit for bit. One thing
// the references take from the plan-driven kernels they were first diffed
// against, by a comparison that took -0 for +0: an interior sum starts from
// its first tap (here: from -0, which that tap survives unchanged), a border
// sum from +0. The two differ only when every tap is -0.

// rawAt is the reference kernels' reflective read: each coordinate mirrored
// once about the frame's edge (paddedFrame.fill reproduces it).
func rawAt(raw *sensor.RawImage, x, y int) float32 {
	return raw.Plane[reflect(y, raw.H)*raw.W+reflect(x, raw.W)]
}

// clampRef is the reference kernels' tap-colour coordinate: rawAt's
// reflection, clamped into the frame.
func clampRef(v, size int) int {
	v = reflect(v, size)
	if v < 0 {
		v = 0
	}
	if v >= size {
		v = size - 1
	}
	return v
}

// absf is the reference kernels' original float helper (production code now
// uses fmath.Abs).
func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// refDemosaicBilinear is the original 3×3 same-color averaging kernel.
func refDemosaicBilinear(raw *sensor.RawImage) *imaging.Image {
	im := imaging.New(raw.W, raw.H)
	n := raw.W * raw.H
	w, h := raw.W, raw.H
	ctab := colorTable(raw)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc [3]float32
			var cnt [3]float32
			i := y*w + x
			if x >= 1 && x < w-1 && y >= 1 && y < h-1 {
				acc = [3]float32{negZero, negZero, negZero}
				for dy := -1; dy <= 1; dy++ {
					row := ctab[(y+dy)&1]
					base := i + dy*w
					for dx := -1; dx <= 1; dx++ {
						c := row[(x+dx)&1]
						acc[c] += raw.Plane[base+dx]
						cnt[c]++
					}
				}
			} else {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						c := raw.ColorAt(clampRef(x+dx, raw.W), clampRef(y+dy, raw.H))
						acc[c] += rawAt(raw, x+dx, y+dy)
						cnt[c]++
					}
				}
			}
			for c := 0; c < 3; c++ {
				if cnt[c] > 0 {
					im.Pix[c*n+i] = acc[c] / cnt[c]
				}
			}
			// keep the exact sample for the native color
			im.Pix[ctab[y&1][x&1]*n+i] = raw.Plane[i]
		}
	}
	return im
}

// refDemosaicEdgeAware is the original two-pass Hamilton–Adams-style kernel.
func refDemosaicEdgeAware(raw *sensor.RawImage) *imaging.Image {
	w, h := raw.W, raw.H
	n := w * h
	im := imaging.New(w, h)
	green := im.Pix[n : 2*n]

	ctab := colorTable(raw)
	plane := raw.Plane

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if ctab[y&1][x&1] == 1 {
				green[i] = plane[i]
				continue
			}
			var gh, gv float32
			var left, right, up, down float32
			if x >= 2 && x < w-2 && y >= 2 && y < h-2 {
				left, right, up, down = plane[i-1], plane[i+1], plane[i-w], plane[i+w]
				gh = absf(left-right) + absf(2*plane[i]-plane[i-2]-plane[i+2])
				gv = absf(up-down) + absf(2*plane[i]-plane[i-2*w]-plane[i+2*w])
			} else {
				left, right = rawAt(raw, x-1, y), rawAt(raw, x+1, y)
				up, down = rawAt(raw, x, y-1), rawAt(raw, x, y+1)
				gh = absf(left-right) + absf(2*rawAt(raw, x, y)-rawAt(raw, x-2, y)-rawAt(raw, x+2, y))
				gv = absf(up-down) + absf(2*rawAt(raw, x, y)-rawAt(raw, x, y-2)-rawAt(raw, x, y+2))
			}
			switch {
			case gh < gv:
				green[i] = (left + right) / 2
			case gv < gh:
				green[i] = (up + down) / 2
			default:
				green[i] = (left + right + up + down) / 4
			}
		}
	}

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			own := ctab[y&1][x&1]
			interior := x >= 1 && x < w-1 && y >= 1 && y < h-1
			for _, c := range [2]int{0, 2} {
				if own == c {
					im.Pix[c*n+i] = plane[i]
					continue
				}
				var diff, cnt float32
				if interior {
					diff = negZero
					for dy := -1; dy <= 1; dy++ {
						row := ctab[(y+dy)&1]
						base := i + dy*w
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							if row[(x+dx)&1] != c {
								continue
							}
							diff += plane[base+dx] - green[base+dx]
							cnt++
						}
					}
				} else {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							xx, yy := clampRef(x+dx, w), clampRef(y+dy, h)
							if raw.ColorAt(xx, yy) != c {
								continue
							}
							diff += rawAt(raw, x+dx, y+dy) - green[yy*w+xx]
							cnt++
						}
					}
				}
				if cnt > 0 {
					im.Pix[c*n+i] = green[i] + diff/cnt
				} else {
					im.Pix[c*n+i] = green[i]
				}
			}
		}
	}
	return im
}

// refDemosaic runs algo's reference kernel and reports whether it finished:
// on a frame under 3×3 its reflective reads can leave the plane, and there
// the reference panics where Demosaic, reading a padded plane, does not.
func refDemosaic(raw *sensor.RawImage, algo DemosaicAlgorithm) (im *imaging.Image, ok bool) {
	defer func() {
		if recover() != nil {
			im, ok = nil, false
		}
	}()
	if algo == DemosaicEdgeAware {
		return refDemosaicEdgeAware(raw), true
	}
	return refDemosaicBilinear(raw), true
}

// sameDemosaic fails t unless got and want agree on every bit, but for NaNs:
// any NaN matches any other, because which of two NaN operands an add
// returns depends on the operand order a compiler picked.
func sameDemosaic(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: sample %d = %v (%#x), reference %v (%#x)", what, i,
				g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// TestDemosaicMatchesReference byte-diffs the plan-driven kernels against
// the originals over 30 random sensor captures: all three Bayer patterns,
// odd and even (and tiny) frame sizes, noisy and noiseless optics.
func TestDemosaicMatchesReference(t *testing.T) {
	prng := rand.New(rand.NewSource(21))
	// 3×3 is the smallest frame the (pre-existing) reflective ±2 taps of
	// the edge-aware kernel support; the reference crashes below that too.
	sizes := [][2]int{{16, 16}, {17, 13}, {32, 32}, {5, 4}, {3, 3}}
	for d := 0; d < 30; d++ {
		sz := sizes[d%len(sizes)]
		scene := imaging.New(sz[0], sz[1])
		for i := range scene.Pix {
			scene.Pix[i] = prng.Float32()
		}
		p := sensor.DefaultParams()
		p.BlurSigma = 0
		if d%2 == 0 {
			p.ShotNoise, p.ReadNoise = 0, 0
		}
		s := sensor.New(p)
		s.Pattern = sensor.BayerPattern(d % 3)
		raw := s.Capture(scene, rand.New(rand.NewSource(int64(d))))

		for _, tc := range []struct {
			name string
			algo DemosaicAlgorithm
			ref  func(*sensor.RawImage) *imaging.Image
		}{
			{"bilinear", DemosaicBilinear, refDemosaicBilinear},
			{"edge", DemosaicEdgeAware, refDemosaicEdgeAware},
		} {
			want := tc.ref(raw)
			what := fmt.Sprintf("draw %d %s %dx%d pattern %v", d, tc.name, sz[0], sz[1], s.Pattern)
			sameDemosaic(t, what, Demosaic(raw, tc.algo).Pix, want.Pix)
			portable(func() { sameDemosaic(t, what+" (Go)", Demosaic(raw, tc.algo).Pix, want.Pix) })
		}
	}
}

// oddRaw is a w×h frame of the given pattern whose samples are uniform in
// [0, 1) but for about one in four drawn from odd; with allNegZero every
// sample is -0, where every sum of the border and of the interior sees only
// -0 taps and the +0 and -0 starts give different zeros.
func oddRaw(rng *rand.Rand, w, h int, pattern sensor.BayerPattern, odd []float32, allNegZero bool) *sensor.RawImage {
	raw := &sensor.RawImage{W: w, H: h, Pattern: pattern, Plane: make([]float32, w*h), Bits: 10}
	for i := range raw.Plane {
		switch {
		case allNegZero:
			raw.Plane[i] = negZero
		case len(odd) > 0 && rng.Intn(4) == 0:
			raw.Plane[i] = odd[rng.Intn(len(odd))]
		default:
			raw.Plane[i] = rng.Float32()
		}
	}
	return raw
}

// demosaicOdd are the samples a raw plane can hold that the arithmetic treats
// apart: zeros of both signs, denormals, infinities (whose sums and
// differences make the processor's NaN) and that NaN.
func demosaicOdd() []float32 {
	return []float32{0, negZero, 1e-45, -1e-45, 1e-39, -1e-39, 1, posInf, -posInf, cpuNaN, 1e38, -1e38}
}

// TestDemosaicBordersMatchReference holds both kernels, on both kernel
// paths, to the references on every frame from 1×1 to 21×13 and every
// pattern value, on odd planes and on planes of -0: the padded border
// against the original reflective border bodies, -0 starts included. A
// frame the reference cannot finish is skipped.
func TestDemosaicBordersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for w := 1; w <= 21; w++ {
		for h := 1; h <= 13; h++ {
			for i := 0; i < 8; i++ {
				pat := sensor.BayerPattern(i % 4)
				raw := oddRaw(rng, w, h, pat, demosaicOdd(), i >= 4)
				for _, algo := range []DemosaicAlgorithm{DemosaicBilinear, DemosaicEdgeAware} {
					want, ok := refDemosaic(raw, algo)
					if !ok {
						continue
					}
					what := fmt.Sprintf("algo %d %dx%d pattern %d, all -0 %v", algo, w, h, pat, i >= 4)
					sameDemosaic(t, what, Demosaic(raw, algo).Pix, want.Pix)
					portable(func() { sameDemosaic(t, what+" (Go)", Demosaic(raw, algo).Pix, want.Pix) })
				}
			}
		}
	}
}

// FuzzDemosaic diffs the dispatched demosaic kernels against the references
// on fuzzed raw bytes: a frame of up to 41×21 samples of any pattern value,
// its plane the fuzzed bytes read as little-endian float32s (zeros past
// them), so every bit pattern a sample can hold — signalling NaNs among them
// — reaches both.
func FuzzDemosaic(f *testing.F) {
	seed := make([]byte, 4*9*7)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(float32(i%13)/13))
	}
	f.Add(uint8(9), uint8(7), uint8(0), seed)
	f.Add(uint8(3), uint8(3), uint8(2), []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0, 0})
	f.Add(uint8(40), uint8(2), uint8(3), []byte{0, 0, 0xc0, 0xff, 1, 0, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, w, h, pattern uint8, plane []byte) {
		raw := &sensor.RawImage{W: 2 + int(w%40), H: 2 + int(h%20), Pattern: sensor.BayerPattern(pattern % 4), Bits: 10}
		raw.Plane = make([]float32, raw.W*raw.H)
		for i := range raw.Plane {
			if 4*i+4 <= len(plane) {
				raw.Plane[i] = math.Float32frombits(binary.LittleEndian.Uint32(plane[4*i:]))
			}
		}
		for _, algo := range []DemosaicAlgorithm{DemosaicBilinear, DemosaicEdgeAware} {
			if want, ok := refDemosaic(raw, algo); ok {
				sameDemosaic(t, fmt.Sprintf("algo %d %dx%d pattern %d", algo, raw.W, raw.H, raw.Pattern),
					Demosaic(raw, algo).Pix, want.Pix)
			}
		}
	})
}
