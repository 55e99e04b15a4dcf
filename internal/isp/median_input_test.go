package isp_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/imaging"
)

// TestFleetMedianInputHasNoSignBit checks the premise under which the
// branch-free median (imaging.MedianDenoise3Into) is bit-identical to the
// comparison network it replaced: the two can differ only on a window
// holding both −0 and +0, and a fleet never builds one. What the filter reads
// is a black-level curve's output (clamped at +0) times a positive
// white-balance gain, so no sample carries a sign bit — checked here on every
// median-denoising device of a synthesized fleet, at both capture scales, on
// displayed items and on a black frame (where the curve's zeros are densest).
func TestFleetMedianInputHasNoSignBit(t *testing.T) {
	items := fleet.Items(7, 3)
	checked := 0
	for _, scale := range []int{1, 2} {
		gen := fleet.NewGenerator(7, scale, 0)
		engine := fleet.NewEngine(7, scale, 0)
		scenes := []*imaging.Image{imaging.New(64/scale, 64/scale)}
		for _, it := range items {
			scenes = append(scenes, engine.Displayed(it, it.ID%5))
		}
		for id := 0; id < 60; id++ {
			d := gen.Device(id)
			for s, scene := range scenes {
				raw := d.Sensor.Capture(scene, rand.New(rand.NewSource(int64(id*16+s))))
				in := d.ISP.MedianInput(raw)
				if in == nil {
					break
				}
				checked++
				for i, v := range in.Pix {
					if math.Float32bits(v)>>31 != 0 || v != v {
						t.Fatalf("scale %d device %d (%s) scene %d: median input sample %d = %v (%#x)", scale, id, d.Cohort, s, i, v, math.Float32bits(v))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no device of the fleet runs a median denoise; the test checks nothing")
	}
}
