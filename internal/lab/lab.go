// Package lab orchestrates the paper's experiments: it owns the screen rig
// (monitor + mounted phones), turns scenes into per-device captures, runs
// the classifier over them, and emits stability.Record streams the analysis
// consumes. Each experiment in the paper corresponds to one entry point
// here.
package lab

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

// Rig is the controlled lab setup of §3.2: a monitor in a dark room with
// phones on a fixed mount.
type Rig struct {
	Screen dataset.ScreenParams
	Phones []*device.Profile
	// Seed drives every stochastic capture; the same seed reproduces the
	// whole experiment bit-for-bit.
	Seed int64
	// Workers sets the capture concurrency (0 = GOMAXPROCS). Every capture
	// seeds its own RNG, so results are identical for any worker count;
	// the rig delegates the sweep to the fleet worker pool.
	Workers int
}

// NewRig returns the default rig with the five lab phones.
func NewRig(seed int64) *Rig {
	return &Rig{Screen: dataset.DefaultScreen(), Phones: device.LabPhones(), Seed: seed}
}

// pool returns the fleet worker pool the rig's capture sweeps run on.
func (r *Rig) pool() *fleet.Pool { return fleet.NewPool(r.Workers) }

// Capture is one photo taken during an experiment.
type Capture struct {
	Item  *dataset.Item
	Angle int
	Phone string
	Image *imaging.Image
	Bytes int // compressed size of the stored photo
}

// CaptureAll photographs every item at every angle with every phone: the
// end-to-end data collection. The (item, angle) cells run concurrently on
// the fleet pool; every capture seeds its own RNG and writes its own output
// slot, so the result is bit-identical to the sequential sweep in the same
// item-major order.
func (r *Rig) CaptureAll(items []*dataset.Item, angles []int) []*Capture {
	cells := len(items) * len(angles)
	out := make([]*Capture, cells*len(r.Phones))
	r.pool().Run(cells, func(cell int) {
		it := items[cell/len(angles)]
		a := angles[cell%len(angles)]
		scene := it.Render(a)
		for pi, phone := range r.Phones {
			rng := rand.New(rand.NewSource(r.captureSeed(it.ID, a, pi, 0)))
			displayed := r.Screen.Display(scene, rng)
			photo := phone.Capture(displayed, rng)
			out[cell*len(r.Phones)+pi] = &Capture{Item: it, Angle: a, Phone: phone.Name, Image: photo.Image, Bytes: photo.Encoded.Size}
		}
	})
	return out
}

// CaptureRepeats takes n successive photos of the same displayed item with
// one phone (shutter presses seconds apart): the Figure 1 / Figure 3(d)
// within-device experiment. Scene and phone are fixed; only temporal noise
// (screen flicker, sensor noise) varies.
func (r *Rig) CaptureRepeats(phone *device.Profile, phoneIdx int, item *dataset.Item, angle, n int) []*Capture {
	scene := item.Render(angle)
	out := make([]*Capture, n)
	r.pool().Run(n, func(rep int) {
		rng := rand.New(rand.NewSource(r.captureSeed(item.ID, angle, phoneIdx, rep+1)))
		displayed := r.Screen.Display(scene, rng)
		photo := phone.Capture(displayed, rng)
		out[rep] = &Capture{Item: item, Angle: angle, Phone: phone.Name, Image: photo.Image, Bytes: photo.Encoded.Size}
	})
	return out
}

// captureSeed derives a unique deterministic seed per (item, angle, phone,
// repeat) from the rig seed.
func (r *Rig) captureSeed(item, angle, phone, repeat int) int64 {
	h := r.Seed
	for _, v := range [4]int64{int64(item), int64(angle), int64(phone), int64(repeat)} {
		h = h*1000003 + v + 12345
	}
	return h
}

// Classify runs an inference backend over captures and emits stability
// records with Env set to the capture's phone name and Runtime set to the
// backend's variant (*nn.Model is the float32 reference). topK is the list
// length recorded for top-k analyses (≥1).
func Classify(b nn.Backend, captures []*Capture, topK int) []*stability.Record {
	images := make([]*imaging.Image, len(captures))
	for i, c := range captures {
		images[i] = c.Image
	}
	preds, scores, probs := train.Evaluate(b, images, 64)
	topks := train.TopKOf(probs, topK)
	out := make([]*stability.Record, len(captures))
	for i, c := range captures {
		out[i] = &stability.Record{
			ItemID:    c.Item.ID,
			Angle:     c.Angle,
			TrueClass: int(c.Item.Class),
			Env:       c.Phone,
			Runtime:   b.Name(),
			Pred:      preds[i],
			Score:     scores[i],
			TopK:      topks[i],
		}
	}
	return out
}

// ClassifyImages is the generic variant for experiments whose environments
// are not phones (codecs, ISPs, decoders): the caller supplies one
// environment name and the item/angle identities. It also returns each
// image's class probabilities, which the precision/recall curves read.
func ClassifyImages(b nn.Backend, images []*imaging.Image, itemIDs, angles, labels []int, env string, topK int) ([]*stability.Record, [][]float64) {
	preds, scores, probs := train.Evaluate(b, images, 64)
	topks := train.TopKOf(probs, topK)
	out := make([]*stability.Record, len(images))
	for i := range images {
		out[i] = &stability.Record{
			ItemID:    itemIDs[i],
			Angle:     angles[i],
			TrueClass: labels[i],
			Env:       env,
			Runtime:   b.Name(),
			Pred:      preds[i],
			Score:     scores[i],
			TopK:      topks[i],
		}
	}
	return out, probs
}
