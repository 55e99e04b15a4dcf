package fleet

import (
	"sync"

	"repro/internal/sensor"
)

// captureArena bundles the per-capture state the engine reuses across cells:
// the cell's noise source (re-seeded, never re-allocated) and the raw Bayer
// frame the sensor writes into. Arenas live in a pool rather than per worker
// so the engine's public Capture stays free of worker plumbing; a Get/Put
// pair per capture is two pointer swaps.
type captureArena struct {
	noise sensor.Noise
	raw   *sensor.RawImage
}

var arenaPool = sync.Pool{New: func() any {
	return &captureArena{raw: new(sensor.RawImage)}
}}

// seed re-points the arena's source at one cell's stream and returns it.
// sensor.Noise draws the stream of rand.New(rand.NewSource(s)) bit for bit,
// and Seed leaves no state of an earlier cell behind, so a pooled source
// yields exactly what a fresh cellRNG(s) would: capture determinism survives
// arena reuse by construction, and TestArenaRNGMatchesCellRNG pins it. The
// sensor fills each mosaic row's normals from it a block at a time.
func (a *captureArena) seed(s int64) *sensor.Noise {
	a.noise.Seed(s)
	return &a.noise
}
