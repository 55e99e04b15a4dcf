package fleet

import (
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fmath"
	"repro/internal/imaging"
)

// Engine is the fleet capture hot path: it turns (device, item, angle)
// cells into decoded photos the way the lab rig does, with the
// scale-critical differences:
//
//   - Captures run at SceneSize/Scale resolution (default half, which is
//     exactly the model's input size, so inference skips its resize too).
//   - The displayed monitor frame is rendered once per (item, angle) and
//     shared by every device through an LRU — physically, the fleet's
//     phones photograph the same screen refresh simultaneously, so they
//     see the same flicker state; computationally, the per-pixel display
//     transfer is amortized over the whole fleet.
//   - Each device's ISP runs through its fused (compiled) form.
//
// All randomness is cell-seeded, so captures are bit-identical regardless
// of which worker executes them.
type Engine struct {
	Screen dataset.ScreenParams
	Seed   int64
	Scale  int // resolution divisor relative to dataset.SceneSize

	scenes *LRU[sceneKey, *imaging.Image]
	tele   *Telemetry // nil → no timing; set via Runner.SetTelemetry
	swap   *stageSwap // the run's format; nil → each device's own pipeline
}

type sceneKey struct{ item, angle int }

// NewEngine returns an engine with the default screen, the given capture
// scale divisor (0 → 2), and a displayed-frame cache of cacheCap entries
// (0 → 512).
func NewEngine(seed int64, scale, cacheCap int) *Engine {
	if scale <= 0 {
		scale = 2
	}
	if cacheCap <= 0 {
		cacheCap = 512
	}
	return &Engine{
		Screen: dataset.DefaultScreen(),
		Seed:   seed,
		Scale:  scale,
		scenes: NewLRU[sceneKey, *imaging.Image](cacheCap),
	}
}

// Displayed returns the monitor's emitted frame for one item/angle at fleet
// resolution. Frames are cached and shared across devices; callers must not
// mutate the result.
func (e *Engine) Displayed(it *dataset.Item, angle int) *imaging.Image {
	return e.scenes.GetOrCompute(sceneKey{it.ID, angle}, func() *imaging.Image {
		scene := it.Render(angle)
		if e.Scale > 1 {
			scene = imaging.Resize(scene, scene.W/e.Scale, scene.H/e.Scale)
		}
		rng := cellRNG(e.Seed, 1, int64(it.ID), int64(angle))
		return e.Screen.Display(scene, rng)
	})
}

// Capture photographs one cell: shared displayed frame → device sensor →
// fused ISP → native codec → OS decode (or the stages the run's format swaps
// in; see Config.Format). It returns the decoded pixels (what
// the device hands its model) and the compressed size in bytes.
//
// Every intermediate lives in a pooled arena: the cell RNG is a re-seeded
// pooled rand.Rand (stream-identical to a fresh one), the raw frame and ISP
// output recycle, and the codec's Encoded returns to its pool once the size
// is read. The returned image comes from imaging.GetImage; callers on the
// hot path hand it back with imaging.PutImage when done, other callers may
// simply keep it.
func (e *Engine) Capture(d *Device, it *dataset.Item, angle int) (*imaging.Image, int) {
	img, size, _ := e.CaptureTimed(d, it, angle)
	return img, size
}

// CaptureEpoch is Capture in virtual time: the same cell photographed in a
// different window (epoch) draws fresh sensor noise from an epoch-qualified
// seed stream, while epoch-independent state (the displayed frame cache, the
// device profile) is shared. Stream 5 is disjoint from every other seed
// namespace, so continuous runs never collide with one-shot runs — and
// epoch 0 of a continuous run is a distinct observation, not a replay of
// the one-shot capture.
func (e *Engine) CaptureEpoch(d *Device, it *dataset.Item, angle, epoch int) (*imaging.Image, int) {
	img, size, _ := e.captureSeeded(d, it, angle, fmath.Mix(e.Seed, 5, int64(epoch), int64(d.ID), int64(it.ID), int64(angle)))
	return img, size
}

// StageTimes is one capture's per-stage wall time in nanoseconds, as
// measured by CaptureTimed. The serving path returns these per request so a
// client can see where its latency went.
type StageTimes struct {
	SensorNanos int64 `json:"sensor"`
	ISPNanos    int64 `json:"isp"`
	CodecNanos  int64 `json:"codec"` // encode + decode
}

// CaptureTimed is Capture that also returns the per-stage wall times it
// reads the clock for either way. When telemetry is attached the times also
// land in the stage histograms.
func (e *Engine) CaptureTimed(d *Device, it *dataset.Item, angle int) (*imaging.Image, int, StageTimes) {
	return e.captureSeeded(d, it, angle, fmath.Mix(e.Seed, 2, int64(d.ID), int64(it.ID), int64(angle)))
}

// captureSeeded is the one capture body: cell seed in, decoded image, size
// and stage times out. Capture and CaptureEpoch discard the times; the four
// clock reads are noise against a 130–800 µs capture. The sensor is the
// only consumer of the cell RNG, so every format draws the same noise.
func (e *Engine) captureSeeded(d *Device, it *dataset.Item, angle int, seed int64) (*imaging.Image, int, StageTimes) {
	displayed := e.Displayed(it, angle)
	a := arenaPool.Get().(*captureArena)
	rng := a.seed(seed)
	t0 := time.Now()
	raw := d.Sensor.CaptureInto(a.raw, displayed, rng)
	t1 := time.Now()
	pipeline, c, opts := d.ISP, d.Profile.Codec, d.Profile.Decode
	if sw := e.swap; sw != nil {
		c, opts = sw.codec, codec.DecodeOptions{}
		if sw.isp != nil {
			pipeline, raw = sw.isp, d.Profile.DevelopRaw(raw)
		}
	}
	processed := pipeline.Process(raw) // pool-owned by this frame; Clamp in place is safe
	t2 := time.Now()
	enc := c.Encode(processed.Clamp())
	imaging.PutImage(processed)
	size := enc.Size
	img := enc.DecodeInto(opts, imaging.GetImage(enc.W, enc.H))
	codec.Release(enc)
	arenaPool.Put(a)
	t3 := time.Now()
	st := StageTimes{
		SensorNanos: t1.Sub(t0).Nanoseconds(),
		ISPNanos:    t2.Sub(t1).Nanoseconds(),
		CodecNanos:  t3.Sub(t2).Nanoseconds(),
	}
	if e.tele != nil {
		e.tele.Sensor.Observe(st.SensorNanos)
		e.tele.ISP.Observe(st.ISPNanos)
		e.tele.Codec.Observe(st.CodecNanos)
		e.tele.Captures.Inc()
	}
	return img, size, st
}

// SetTelemetry attaches capture instruments to the engine; nil disables
// recording. Telemetry only records the stage times, so instrumented captures
// stay byte-identical to uninstrumented ones.
func (e *Engine) SetTelemetry(t *Telemetry) { e.tele = t }
