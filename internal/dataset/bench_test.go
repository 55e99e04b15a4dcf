package dataset

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/imaging"
)

// BenchmarkDisplay times the monitor's transfer of one stored frame at the
// rig's 64×64 and at the fleet's half resolution, 32×32: one gamma power a
// sample, the work a run does once per (item, angle) before any device
// photographs it.
func BenchmarkDisplay(b *testing.B) {
	sp := DefaultScreen()
	scene := GenerateHard(1, 11).Items[0].Render(0)
	for _, sz := range []int{64, 32} {
		im := scene
		if sz != scene.W {
			im = imaging.Resize(scene, sz, sz)
		}
		b.Run(strconv.Itoa(sz), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				sp.Display(im, rng)
			}
		})
	}
}
